package core

import (
	"fmt"

	"dmac/internal/dep"
	"dmac/internal/expr"
)

// Check validates the structural invariants of a plan. It is used by tests
// and by the engine before execution:
//
//   - every operator reads only values produced by earlier operators;
//   - every value is produced by exactly one operator;
//   - schemes are concrete (flexible outputs were finalized) and consistent
//     with the operator kinds (partition -> r/c, broadcast -> b, transpose
//     flips scheme and transposition, extract reads b);
//   - within a stage no operator communicates across its boundary: every
//     communicating operator's inputs live in an earlier stage;
//   - only a broadcast or a (b) leaf carries a reach (Op.Reach), and it
//     lists distinct workers of the plan in ascending order.
//
// It reads the operators' Stage fields only, never the stage index
// AssignStages kept: a check must not trust what it checks.
func (p *Plan) Check() error {
	produced := make([]bool, len(p.Values))
	stageOf := make([]int, len(p.Values))
	for i, op := range p.Ops {
		for _, in := range op.Inputs {
			if in < 0 || int(in) >= len(p.Values) {
				return fmt.Errorf("core: op %d reads invalid value v%d", i, in)
			}
			if !produced[in] {
				return fmt.Errorf("core: op %d reads value v%d before it is produced", i, in)
			}
		}
		if op.Output >= 0 {
			if int(op.Output) >= len(p.Values) {
				return fmt.Errorf("core: op %d produces invalid value v%d", i, op.Output)
			}
			if produced[op.Output] {
				return fmt.Errorf("core: value v%d produced twice", op.Output)
			}
			produced[op.Output] = true
			stageOf[op.Output] = op.Stage
			out := p.Values[op.Output]
			if !out.Pinned() {
				return fmt.Errorf("core: op %d output v%d has unfinalized scheme", i, op.Output)
			}
		}
		if err := p.checkOpSchemes(i, op); err != nil {
			return err
		}
		if op.Reach != nil && op.Kind != OpBroadcast && !p.readsReplica(op) {
			return fmt.Errorf("core: %s op %d carries a reach %v", op.Kind, i, op.Reach)
		}
		for j, w := range op.Reach {
			if w < 0 || w >= p.Workers || (j > 0 && w <= op.Reach[j-1]) {
				return fmt.Errorf("core: op %d reaches workers %v, not ascending distinct workers of %d", i, op.Reach, p.Workers)
			}
		}
	}
	for i, ok := range produced {
		if !ok {
			return fmt.Errorf("core: value v%d is never produced", i)
		}
	}
	// Stage discipline: only communicating operators may cross stages, and
	// they must cross exactly one.
	for i, op := range p.Ops {
		maxIn := 0
		for _, in := range op.Inputs {
			maxIn = max(maxIn, stageOf[in])
		}
		if len(op.Inputs) == 0 {
			continue
		}
		switch {
		case op.CommBytes > 0 && op.Stage != maxIn+1:
			return fmt.Errorf("core: comm op %d at stage %d, inputs at %d", i, op.Stage, maxIn)
		case op.CommBytes == 0 && op.Stage != maxIn:
			return fmt.Errorf("core: local op %d at stage %d, inputs at %d", i, op.Stage, maxIn)
		}
	}
	return nil
}

func (p *Plan) checkOpSchemes(i int, op *Op) error {
	val := func(id ValueID) *Value { return p.Values[id] }
	switch op.Kind {
	case OpLoad, OpVar:
		if len(op.Inputs) != 0 || op.Output < 0 {
			return fmt.Errorf("core: leaf op %d malformed", i)
		}
		if op.Node == nil || (op.Node.Kind != expr.KindLoad && op.Node.Kind != expr.KindVar) {
			return fmt.Errorf("core: leaf op %d has wrong node", i)
		}
	case OpPartition:
		if len(op.Inputs) != 1 || op.Output < 0 {
			return fmt.Errorf("core: partition op %d malformed", i)
		}
		if s := val(op.Output).Scheme; s != dep.Row && s != dep.Col {
			return fmt.Errorf("core: partition op %d produces scheme %s", i, s)
		}
		if op.CommBytes <= 0 {
			return fmt.Errorf("core: partition op %d has no communication", i)
		}
	case OpBroadcast:
		if len(op.Inputs) != 1 || op.Output < 0 {
			return fmt.Errorf("core: broadcast op %d malformed", i)
		}
		if val(op.Output).Scheme != dep.Broadcast {
			return fmt.Errorf("core: broadcast op %d produces scheme %s", i, val(op.Output).Scheme)
		}
		if op.CommBytes <= 0 {
			return fmt.Errorf("core: broadcast op %d has no communication", i)
		}
	case OpTranspose:
		if len(op.Inputs) != 1 || op.Output < 0 {
			return fmt.Errorf("core: transpose op %d malformed", i)
		}
		in, out := val(op.Inputs[0]), val(op.Output)
		if out.Transposed == in.Transposed {
			return fmt.Errorf("core: transpose op %d does not flip transposition", i)
		}
		if out.Scheme != in.Scheme.Opposite() {
			return fmt.Errorf("core: transpose op %d scheme %s -> %s", i, in.Scheme, out.Scheme)
		}
	case OpExtract:
		if len(op.Inputs) != 1 || op.Output < 0 {
			return fmt.Errorf("core: extract op %d malformed", i)
		}
		in, out := val(op.Inputs[0]), val(op.Output)
		if in.Scheme != dep.Broadcast {
			return fmt.Errorf("core: extract op %d reads scheme %s", i, in.Scheme)
		}
		if s := out.Scheme; s != dep.Row && s != dep.Col {
			return fmt.Errorf("core: extract op %d produces scheme %s", i, s)
		}
		if op.CommBytes != 0 {
			return fmt.Errorf("core: extract op %d communicates", i)
		}
	case OpCompute:
		if op.Node == nil {
			return fmt.Errorf("core: compute op %d has no node", i)
		}
		if len(op.Inputs) != len(op.Node.Inputs) {
			return fmt.Errorf("core: compute op %d reads %d values, its node %d", i, len(op.Inputs), len(op.Node.Inputs))
		}
		if op.InPlace >= len(op.Inputs) || (op.InPlace >= 0 && !op.Node.Kind.IsCellwise()) {
			return fmt.Errorf("core: compute op %d overwrites input %d", i, op.InPlace)
		}
		if op.Node.Kind.IsAggregate() {
			if op.Output >= 0 || op.ScalarName == "" {
				return fmt.Errorf("core: aggregate op %d malformed", i)
			}
		} else if op.Output < 0 {
			return fmt.Errorf("core: compute op %d has no output", i)
		}
	case OpReference:
		// Reference is represented implicitly (direct value reuse); an
		// explicit reference op in a plan is unexpected.
		return fmt.Errorf("core: unexpected explicit reference op %d", i)
	default:
		return fmt.Errorf("core: op %d has unknown kind %v", i, op.Kind)
	}
	return nil
}

package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dmac/internal/core"
	"dmac/internal/dep"
)

// heldSchemes lists the schemes each session variable holds an instance of.
func heldSchemes(e *Engine) map[string]map[dep.Scheme]bool {
	held := make(map[string]map[dep.Scheme]bool)
	for name, vs := range e.vars {
		held[name] = make(map[dep.Scheme]bool)
		for s := range vs.instances {
			held[name][s] = true
		}
	}
	return held
}

// TestSessionKeepsWhatThePlanKeeps: the plan's def-use table decides what a
// run leaves in the session, and the run leaves exactly that. After every run
// a variable the program assigns holds the schemes of its Keep's values (each
// after the fold-back's transpose) and nothing else, an input variable holds
// what it held before plus its Keep's schemes, and every other variable is
// untouched — over random programs on all three planners, run twice each so
// the second run starts from the instances the first cached.
func TestSessionKeepsWhatThePlanKeeps(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed + 7000))
		prog, _ := core.RandomProgram(rng)
		data := denseLeafData(rng, prog, 4)
		for _, planner := range []Planner{DMac, SystemMLS, Local} {
			e := New(planner, testConfig(), 4)
			for name, g := range data {
				if err := e.Bind(name, g.Clone()); err != nil {
					t.Fatal(err)
				}
			}
			for iter := 0; iter < 2; iter++ {
				label := fmt.Sprintf("seed %d on %s, run %d", seed, planner, iter)
				plan, err := e.Plan(prog)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want := heldSchemes(e)
				for _, k := range plan.Keeps() {
					if k.Assign {
						want[k.Var] = make(map[dep.Scheme]bool)
					}
					for _, id := range k.Values {
						v := plan.Value(id)
						s := v.Scheme
						if v.Transposed != k.Ref.Transposed {
							s = s.Opposite()
						}
						want[k.Var][s] = true
					}
				}
				if _, err := e.Run(prog, nil); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if got := heldSchemes(e); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: the session holds %v, the plan keeps %v\n%s", label, got, want, plan)
				}
			}
		}
	}
}

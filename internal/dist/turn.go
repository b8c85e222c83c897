package dist

import "context"

// Turn is one operator's place in the ordered turns of its stage. A stage
// runner that overlaps the kernels of independent operators hands each
// operator its own Turn through the context of its cluster calls (WithTurn),
// and the cluster then does in plan order everything whose order shows:
//
//   - the fault check: an operator that takes the armed task kill does so
//     before it calls Begun, so no later operator may have begun;
//   - the collectives: transfers, corruption faults and network faults are
//     consumed by the first collective in plan order, whatever the timing;
//   - the modelled FLOPs: a float sum depends on the order of its terms, so
//     an operator's charges go to its Turn, which applies them in plan order.
//
// Without a Turn (a plain context) every call runs and charges at once.
type Turn interface {
	// Begun reports that the operator has passed its fault check: the
	// operator after it may begin. An operator that never calls it has begun
	// when it returns.
	Begun()
	// Collective blocks until every earlier operator of the stage has
	// finished. An error means an earlier operator failed: the attempt is
	// over and the collective must not run.
	Collective() error
	// ChargeFLOPs records modelled arithmetic, to be added to NetStats once
	// every earlier operator's charges are.
	ChargeFLOPs(f float64)
}

type turnKey struct{}

// WithTurn returns a copy of ctx that carries an operator's turn.
func WithTurn(ctx context.Context, t Turn) context.Context {
	return context.WithValue(ctx, turnKey{}, t)
}

func turnOf(ctx context.Context) Turn {
	t, _ := ctx.Value(turnKey{}).(Turn)
	return t
}

// addFLOPs charges modelled arithmetic: to the operator's turn when ctx
// carries one, to NetStats otherwise.
func (c *Cluster) addFLOPs(ctx context.Context, f float64) {
	if t := turnOf(ctx); t != nil {
		t.ChargeFLOPs(f)
		return
	}
	c.net.AddFLOPs(f)
}

// opFault takes the armed task fault, if any, as the operator's fault check;
// an operator that passes it has begun.
func (c *Cluster) opFault(ctx context.Context) error {
	if f := c.TakeFault(); f != nil {
		return f
	}
	if t := turnOf(ctx); t != nil {
		t.Begun()
	}
	return nil
}

// collectiveTurn waits for the operator's turn to communicate.
func collectiveTurn(ctx context.Context) error {
	if t := turnOf(ctx); t != nil {
		return t.Collective()
	}
	return nil
}

package dist

import "context"

// A Charger takes the charges of the cluster calls made under a context that
// carries it (WithCharger): an operator's Turn, or the record of a stage's
// work that belongs to no operator.
type Charger interface {
	// Charge records one charge, with the charges before it, in order.
	Charge(s Snapshot)
}

// Turn is one operator's place in the ordered turns of its stage. A stage
// runner that overlaps the kernels of independent operators hands each
// operator its own Turn through the context of its cluster calls
// (WithCharger), and the cluster then does in plan order everything whose
// order shows:
//
//   - the fault check: an operator that takes the armed task kill does so
//     before it calls Begun, so no later operator may have begun;
//   - the collectives: transfers, corruption faults and network faults are
//     consumed by the first collective in plan order, whatever the timing;
//   - the charges: a float sum depends on the order of its terms, so an
//     operator's charges go to its Turn, which applies them in plan order.
//
// Without one (a plain context) every call runs and charges at once.
type Turn interface {
	// Begun reports that the operator has passed its fault check: the
	// operator after it may begin. An operator that never calls it has begun
	// when it returns.
	Begun()
	// Collective blocks until every earlier operator of the stage has
	// finished. An error means an earlier operator failed: the attempt is
	// over and the collective must not run.
	Collective() error
	// Charger takes the operator's charges, to be booked once every earlier
	// operator's are.
	Charger
}

type chargerKey struct{}

// WithCharger returns a copy of ctx whose cluster calls charge ch, and take
// their turns from it when it is a Turn.
func WithCharger(ctx context.Context, ch Charger) context.Context {
	return context.WithValue(ctx, chargerKey{}, ch)
}

func turnOf(ctx context.Context) Turn {
	t, _ := ctx.Value(chargerKey{}).(Turn)
	return t
}

// charge is the one path of every cost the cluster books: to the Charger ctx
// carries, to NetStats otherwise.
func (c *Cluster) charge(ctx context.Context, s Snapshot) {
	if ch, ok := ctx.Value(chargerKey{}).(Charger); ok {
		ch.Charge(s)
		return
	}
	c.net.Add(s)
}

// EndRun books a run's summed charges to NetStats, once, whichever way the
// run returns: the charges were made under its stages' Chargers.
func (c *Cluster) EndRun(total Snapshot) { c.charge(context.Background(), total) }

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

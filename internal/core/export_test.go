package core

// ValueStage returns the stage that produces value id.
func (p *Plan) ValueStage(id ValueID) int { return p.uses[id].stage }

package nfa

// Views of the latch tables for the external tests, which check that every
// branch of the latch memo and of the covered-set shortcut is taken.

// Latch returns the self-looping states of each word.
func (p *Plan) Latch() []uint64 { return p.latch }

// Covered returns the covered states of each word on an injecting or a
// quiet cycle.
func (p *Plan) Covered(inject bool) []uint64 {
	if inject {
		return p.covered[1]
	}
	return p.covered[0]
}

// On returns the latches the memo was last synced to.
func (c *Latches) On() []uint64 { return c.on }

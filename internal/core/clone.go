package core

// Clone returns a new machine with the receiver's configuration and a
// pristine execution state, as if freshly Configured. The compile products
// (automaton, placement, report table) and the NFA plan the machine steps
// on are shared with the receiver, which never writes them; the clone
// allocates only what execution mutates (active set, latch memo,
// counters), so clones execute fully independently at a fraction of the
// footprint of re-running Configure. This is the mechanism behind parallel
// shard workers and cached-compile engines.
//
// A telemetry attachment does not carry over (attach it to the clone
// explicitly), and neither does a SuppressStartOfData setting. The
// receiver must not be executing concurrently; concurrent Clone calls on
// one receiver are safe.
func (m *Machine) Clone() *Machine {
	return newMachine(m.cfg, m.a, m.place, m.plan, m.reports)
}

// SuppressStartOfData disables the start-of-data injection that normally
// fires on the machine's first executed cycle. Parallel shard workers use
// it when replaying warm-up context from the middle of the stream: their
// local cycle zero is not the input's byte zero, so anchored (StartOfData)
// states must stay quiet. It has no effect on StartAllInput injection,
// whose cadence depends only on the absolute cycle count.
func (m *Machine) SuppressStartOfData(v bool) { m.noStartData = v }

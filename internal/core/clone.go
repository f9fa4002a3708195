package core

// Clone returns a new machine with the receiver's configuration and a
// pristine execution state, as if freshly Configured. The compile products
// (automaton, placement) and the whole configuration image — match rows,
// crossbar, global switches — are shared with the receiver; the clone
// allocates only what execution mutates (active vectors, report regions,
// counters), so clones execute fully independently at a fraction of the
// footprint of re-running Configure. This is the mechanism behind parallel
// shard workers and cached-compile engines. The image is never written in
// Automata Mode (only Normal Mode writes take it private, see own), so
// sharing it is safe.
//
// A telemetry attachment does not carry over (attach it to the clone
// explicitly), and neither does a SuppressStartOfData setting. The
// receiver must be in Automata Mode and must not be executing concurrently;
// concurrent Clone calls on one receiver are safe.
func (m *Machine) Clone() *Machine {
	if m.mode != AutomataMode {
		panic("core: Clone while in normal (cache) mode")
	}
	return newMachine(m.cfg, m.a, m.place, m.img)
}

// SuppressStartOfData disables the start-of-data injection that normally
// fires on the machine's first executed cycle. Parallel shard workers use
// it when replaying warm-up context from the middle of the stream: their
// local cycle zero is not the input's byte zero, so anchored (StartOfData)
// states must stay quiet. It has no effect on StartAllInput injection,
// whose cadence depends only on the absolute cycle count.
func (m *Machine) SuppressStartOfData(v bool) { m.noStartData = v }

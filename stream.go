package sunder

import "errors"

// ErrClosedStream is returned by Stream.Write after Close.
var ErrClosedStream = errors.New("sunder: write to closed stream")

// Stream scans input incrementally — the deployment mode of network
// intrusion detection, where packets arrive one at a time and matches must
// surface immediately. It implements io.Writer; matches are delivered to
// the OnMatch callback as they occur.
type Stream struct {
	e *Engine
	// run is the resolved leg's runner: Write feeds it, Close finishes it.
	run     runner
	err     error
	bytesIn int64
	closed  bool
	// stats memoizes the Close result (Close is idempotent).
	stats Stats
}

// NewStream resets the engine and returns a streaming scanner. onMatch may
// be nil if only the final Stats are of interest. The returned error is
// currently always nil.
//
// A stream drives the engine's sequential runner (its shared machine, or
// its lazy DFA), so one engine supports one stream at a time; for
// concurrent streams, open each on its own Engine.Clone — clones share the
// compiled artifacts, so this is cheap.
func (e *Engine) NewStream(onMatch func(Match)) (*Stream, error) {
	// Streams are inherently sequential: the "parallel" backend streams on
	// the machine like "nfa".
	rt, err := e.resolve("", shardNever)
	if err != nil {
		return nil, err
	}
	if onMatch == nil {
		onMatch = func(Match) {}
	}
	rn := e.runner(rt.leg, false)
	s := &Stream{e: e, run: rn}
	if rt.filtered {
		s.run = &streamFilter{windowLoop: windowLoop{rn: rn, p: e.pre}, e: e}
	}
	s.run.reset(onMatch, 0)
	return s, nil
}

// Write feeds more input. It returns ErrClosedStream after Close and the
// stream's sticky error after a full prefilter deferred-start buffer
// (ErrDeferredBufferFull; the chunk was consumed and Close accounts for it,
// but the stream accepts no more input) or a chunk that would take the
// stream past the device's cycle range (ErrCycleRangeExceeded; the chunk
// was not consumed). The signature satisfies io.Writer.
func (s *Stream) Write(p []byte) (int, error) {
	if s.closed {
		return 0, ErrClosedStream
	}
	if s.err != nil {
		return 0, s.err
	}
	if err := s.e.checkCycleRange(s.bytesIn + int64(len(p))); err != nil {
		s.err = err
		return 0, err
	}
	s.bytesIn += int64(len(p))
	if err := s.run.feed(p); err != nil {
		s.err = err
		return 0, err
	}
	return len(p), nil
}

// Close pads and executes the final partial vector (matches ending on the
// last input bytes are still found) and returns the device statistics.
// Close is idempotent: further calls return the same statistics, and
// further writes return ErrClosedStream.
func (s *Stream) Close() Stats {
	if !s.closed {
		s.closed = true
		s.stats = s.run.finish().stats
	}
	return s.stats
}

// Err returns the sticky error of the Write that was refused, if any.
func (s *Stream) Err() error { return s.err }

// BytesIn returns the number of input bytes consumed so far.
func (s *Stream) BytesIn() int64 { return s.bytesIn }

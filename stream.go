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
	// rn is the runner the stream holds until Close, and filter the
	// stream's prefilter over it, nil when the engine has none: Write feeds
	// the filter, or else rn; Close finishes it, hands rn back and drops
	// both, so a closed stream is one whose rn is nil.
	rn      *runner
	filter  *streamFilter
	err     error
	bytesIn int64
	// stats memoizes the Close result (Close is idempotent).
	stats Stats
}

// NewStream returns a streaming scanner. onMatch may be nil if only the
// final Stats are of interest. The returned error is currently always nil.
//
// A stream holds a runner of its own (a machine clone or a lazy DFA) from
// NewStream until Close, so any number of streams, and any other calls,
// may run on one engine at once. A stream itself is not safe for
// concurrent use.
func (e *Engine) NewStream(onMatch func(Match)) (*Stream, error) {
	if onMatch == nil {
		onMatch = func(Match) {}
	}
	s := &Stream{e: e, rn: e.take()}
	if e.pre.enabled() {
		s.filter = &streamFilter{windowLoop: windowLoop{rn: s.rn, g: &e.geo}, e: e, p: e.pre}
	}
	s.rn.reset(onMatch, 0)
	return s, nil
}

// Write feeds more input. It returns ErrClosedStream after Close and the
// stream's sticky error after a full prefilter deferred-start buffer
// (ErrDeferredBufferFull; the chunk was consumed and Close accounts for it,
// but the stream accepts no more input) or a chunk that would take the
// stream past the device's cycle range (ErrCycleRangeExceeded; the chunk
// was not consumed). The signature satisfies io.Writer.
func (s *Stream) Write(p []byte) (int, error) {
	if s.rn == nil {
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
	if s.filter == nil {
		s.rn.feed(p)
	} else if err := s.filter.feed(p); err != nil {
		s.err = err
		return 0, err
	}
	return len(p), nil
}

// Close pads and executes the final partial vector (matches ending on the
// last input bytes are still found), hands the stream's runner back and
// returns the device statistics. Close is idempotent: further calls return
// the same statistics, and further writes return ErrClosedStream.
func (s *Stream) Close() Stats {
	if s.rn == nil {
		return s.stats
	}
	if s.filter != nil {
		s.stats = s.filter.finish().stats
	} else {
		s.stats = s.rn.finish().stats
	}
	s.e.give(s.rn)
	s.rn, s.filter = nil, nil
	return s.stats
}

// Err returns the sticky error of the Write that was refused, if any.
func (s *Stream) Err() error { return s.err }

// BytesIn returns the number of input bytes consumed so far.
func (s *Stream) BytesIn() int64 { return s.bytesIn }

package server

import (
	"context"
	"errors"
)

// ErrPoolBusy is returned by acquire when the waiter queue is full: the
// caller should shed the request (HTTP 503) rather than queue without
// bound.
var ErrPoolBusy = errors.New("server: engine pool queue is full")

// admission is a ruleset's admission semaphore: at most size requests run
// on its engine at once, one per slot of running, behind a bounded
// acquisition queue. A second token channel bounds how many acquirers may
// be in flight at once (size + queue depth), so once every slot is busy at
// most `queue` requests wait and the rest fail fast with ErrPoolBusy —
// backpressure toward the client instead of unbounded goroutine pileup.
//
// The engine itself is safe for concurrent use; the semaphore bounds the
// runners, goroutines and memory one ruleset's requests hold at once.
type admission struct {
	running, tokens chan struct{}
}

// newAdmission admits size >= 1 requests at once and allows up to
// queue >= 0 waiting acquirers (Config.withDefaults guarantees both).
func newAdmission(size, queue int) *admission {
	return &admission{running: make(chan struct{}, size), tokens: make(chan struct{}, size+queue)}
}

// acquire takes a slot, waiting until one frees up or ctx ends. It returns
// ErrPoolBusy immediately when size+queue acquirers are already in flight.
func (a *admission) acquire(ctx context.Context) error {
	select {
	case a.tokens <- struct{}{}:
	default:
		return ErrPoolBusy
	}
	defer func() { <-a.tokens }()
	select {
	case a.running <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release frees a slot taken by acquire.
func (a *admission) release() { <-a.running }

// stats snapshots the semaphore for the ruleset-info endpoint: idle is the
// slots no request holds.
func (a *admission) stats() PoolStatsJSON {
	size := cap(a.running)
	return PoolStatsJSON{Size: size, Idle: size - len(a.running), Queue: cap(a.tokens) - size}
}

package main

import (
	"sync"

	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/mrt"
	"repro/internal/telemetry"
	"repro/internal/vitals"
)

// segmentFollower runs the work derived from sealed WAL segments — the
// skip-index entry and the archive gap audit — off the collection path.
// The journal's OnSeal hook runs on a shard worker and holds up every
// other shard's next seal, so all it may do is enqueue; the journal calls
// it in seal order, and one goroutine then takes the segments in that
// order (the gap auditor needs them oldest first).
// Nothing depends on the follower keeping up: a query never skips a
// segment the index has not seen, and the queue is a list of paths.
type segmentFollower struct {
	work func(path string)

	mu      sync.Mutex
	wake    sync.Cond // on mu; signalled when queue grows or closing is set
	queue   []string  // sealed and not yet worked, the one in hand included
	closing bool
	done    chan struct{} // closed when the goroutine has exited
}

// newSegmentFollower starts a follower that calls work for every enqueued
// path, and exports the queue length as index.follower_lag_segments.
func newSegmentFollower(reg *metrics.Registry, work func(path string)) *segmentFollower {
	f := &segmentFollower{work: work, done: make(chan struct{})}
	f.wake.L = &f.mu
	reg.GaugeFunc("index.follower_lag_segments", func() int64 {
		f.mu.Lock()
		defer f.mu.Unlock()
		return int64(len(f.queue))
	})
	go f.run()
	return f
}

// enqueue hands the follower one sealed segment. It never blocks.
func (f *segmentFollower) enqueue(path string) {
	f.mu.Lock()
	f.queue = append(f.queue, path)
	f.mu.Unlock()
	f.wake.Signal()
}

func (f *segmentFollower) run() {
	defer close(f.done)
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		for len(f.queue) == 0 && !f.closing {
			f.wake.Wait()
		}
		if len(f.queue) == 0 {
			return
		}
		path := f.queue[0]
		f.mu.Unlock()
		f.work(path)
		f.mu.Lock()
		f.queue = f.queue[1:]
	}
}

// close drains the queue and returns once the follower has exited. No
// enqueue may follow it.
func (f *segmentFollower) close() {
	f.mu.Lock()
	f.closing = true
	f.mu.Unlock()
	f.wake.Signal()
	<-f.done
}

// indexSealed is the follower's work on one sealed segment: a single pass
// over its records feeds both the skip-index entry and, when the vitals
// plane runs, the gap auditor.
func indexSealed(ix *index.Index, gaps *vitals.GapAuditor, log *telemetry.Logger) func(path string) {
	var observe func(*mrt.UpdateView)
	if gaps != nil {
		observe = gaps.ObserveView
	}
	return func(path string) {
		sealed, err := ix.AddSegmentObserved(path, observe)
		if err != nil {
			log.Warn("indexing sealed segment failed", "segment", path, "err", err)
		}
		if gaps != nil {
			gaps.SegmentDone(sealed)
		}
	}
}

package main

import (
	"sync"
	"sync/atomic"
	"time"

	"fcae"
)

// listener accumulates the store's flush, compaction and stall events
// while the timed phase runs, and turns them into background spans when
// tracing.
type listener struct {
	fcae.NoopListener
	tr     *tracer
	timing atomic.Bool

	mu          sync.Mutex
	stallCount  int64
	stallBy     [3]time.Duration // indexed by fcae.StallReason
	flushCount  int64
	flushBusy   time.Duration
	flushBytes  int64
	compactions int64
	trivial     int64
	compBusy    time.Duration
	compRead    int64
	compWrite   int64
	// Device-lane totals: bytes the engine merged and its modeled time.
	deviceRead     int64
	deviceKernel   time.Duration
	deviceTransfer time.Duration
}

var stallSpanNames = [3]string{"lsm.stall.l0_slowdown", "lsm.stall.memtable_full", "lsm.stall.l0_stop"}

func (l *listener) WriteStallEnd(e fcae.WriteStallEndEvent) {
	if !l.timing.Load() || int(e.Reason) >= len(l.stallBy) {
		return
	}
	l.mu.Lock()
	l.stallCount++
	l.stallBy[e.Reason] += e.Duration
	l.mu.Unlock()
	if l.tr != nil {
		end := l.tr.now()
		l.tr.addBackground(span{Parent: l.tr.writer.Load(), Name: stallSpanNames[e.Reason], Start: end - int64(e.Duration), End: end})
	}
}

func (l *listener) FlushEnd(e fcae.FlushEndEvent) {
	if !l.timing.Load() || e.Err != nil {
		return
	}
	l.mu.Lock()
	l.flushCount++
	l.flushBusy += e.Wall
	l.flushBytes += e.Output.Size
	l.mu.Unlock()
	if l.tr != nil {
		end := l.tr.now()
		l.tr.addBackground(span{Req: -int64(e.JobID), Name: "lsm.flush", Start: end - int64(e.Wall), End: end})
	}
}

func (l *listener) CompactionEnd(e fcae.CompactionEndEvent) {
	if !l.timing.Load() || e.Err != nil {
		return
	}
	l.mu.Lock()
	l.compactions++
	if e.TrivialMove {
		l.trivial++
	} else {
		l.compBusy += e.Wall
		l.compRead += e.BytesRead
		l.compWrite += e.BytesWritten
		if e.Lane != fcae.LaneCPU && e.Lane != fcae.LaneNone {
			l.deviceRead += e.BytesRead
			l.deviceKernel += e.KernelTime
			l.deviceTransfer += e.TransferTime
		}
	}
	l.mu.Unlock()
	if l.tr == nil || e.TrivialMove {
		return
	}
	end := l.tr.now()
	job := span{ID: l.tr.nextID.Add(1), Req: -int64(e.JobID), Name: "compaction", Start: end - int64(e.Wall), End: end}
	var phases []span
	for _, p := range e.Trace.Spans() {
		s := job.Start + int64(p.Start)
		phases = append(phases, span{
			ID: l.tr.nextID.Add(1), Req: job.Req, Name: "compaction." + p.Phase,
			Start: min(max(s, job.Start), job.End), End: min(s+int64(p.Dur), job.End),
		})
	}
	l.tr.addBackground(append([]span{job}, nestPhases(job, phases)...)...)
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// A span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the tracer's origin; Parent is the causing span's ID
// (0 for a root); Req is shared by the spans of one request or job.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Weight is how many requests this span stands for: foreground
	// requests are sampled one in sampleEvery, background jobs all kept.
	Weight int64 `json:"weight"`
}

// sampleEvery keeps the spans of one foreground request in this many, so
// that a traced run's memory stays bounded; background spans (flushes,
// compactions, stalls) are all kept.
const sampleEvery = 16

// tracer records spans in memory. A nil *tracer records nothing, which is
// how untraced runs pay no tracing cost.
type tracer struct {
	origin time.Time
	nextID atomic.Int64
	// writer is the span ID of the single foreground writer's current
	// store call, the parent of stall spans delivered on its goroutine.
	writer atomic.Int64

	mu   sync.Mutex
	bufs []*spanBuf
	bg   []span // background spans, from listener callbacks
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// setWriter records the span ID of the writer's current store call (0
// between calls).
func (t *tracer) setWriter(id int64) {
	if t != nil {
		t.writer.Store(id)
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// spanBuf is one goroutine's span buffer; only its owner appends.
type spanBuf struct {
	t     *tracer
	spans []span
}

// buffer returns a new per-goroutine buffer (nil for a nil tracer).
func (t *tracer) buffer() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{t: t}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// sampled reports whether request req is traced.
func (b *spanBuf) sampled(req int64) bool { return b != nil && req%sampleEvery == 0 }

// begin opens a span for a sampled request and returns its handle; end
// closes it. Both are no-ops (handle -1) for unsampled requests.
func (b *spanBuf) begin(name string, parent, req int64) int {
	if !b.sampled(req) {
		return -1
	}
	return b.beginAt(name, parent, req, b.t.now())
}

func (b *spanBuf) beginAt(name string, parent, req, start int64) int {
	b.spans = append(b.spans, span{ID: b.t.nextID.Add(1), Parent: parent, Req: req, Name: name, Start: start, Weight: sampleEvery})
	return len(b.spans) - 1
}

func (b *spanBuf) end(h int) {
	if h >= 0 {
		b.spans[h].End = b.t.now()
	}
}

func (b *spanBuf) id(h int) int64 {
	if h < 0 {
		return 0
	}
	return b.spans[h].ID
}

// addBackground records finished background spans, safe from any
// goroutine. Spans without an ID get one.
func (t *tracer) addBackground(spans ...span) {
	for i := range spans {
		if spans[i].ID == 0 {
			spans[i].ID = t.nextID.Add(1)
		}
		spans[i].Weight = 1
	}
	t.mu.Lock()
	t.bg = append(t.bg, spans...)
	t.mu.Unlock()
}

// all returns every recorded span. Call it once all recording goroutines
// have finished.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.bg...)
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	return out
}

// selfTimes returns, per span name, the weighted sum of each span's self
// time: its duration minus the part of its interval covered by the union
// of its children, so overlapping children are not subtracted twice.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		self := (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
		out[s.Name] += time.Duration(self * s.Weight)
	}
	return out
}

// covered returns the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = append([][2]int64(nil), ivs...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// nestPhases turns a compaction's flat phase list into spans under the
// job span: each phase's parent is the shortest other phase containing
// it, else the job itself.
func nestPhases(job span, phases []span) []span {
	out := make([]span, len(phases))
	copy(out, phases)
	for i := range out {
		out[i].Parent = job.ID
		best := int64(-1)
		for j, p := range phases {
			if j == i || p.Start > out[i].Start || p.End < out[i].End {
				continue
			}
			// Identical intervals nest by list order so the pair has one
			// parent, not two.
			if p.Start == out[i].Start && p.End == out[i].End && j > i {
				continue
			}
			if d := p.End - p.Start; best < 0 || d < best {
				best = d
				out[i].Parent = p.ID
			}
		}
	}
	return out
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

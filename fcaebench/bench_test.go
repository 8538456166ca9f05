package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"fcae"
)

// parseKey returns the index makeKey encoded in k.
func parseKey(k []byte) (uint64, error) {
	if len(k) != keySize || k[0] != 'k' {
		return 0, fmt.Errorf("malformed key %q", k)
	}
	return strconv.ParseUint(string(k[1:]), 10, 64)
}

func TestQuantileCarriesSampleCount(t *testing.T) {
	var l latencies
	for i := 1; i <= 1000; i++ {
		l.add(time.Duration(i) * time.Microsecond)
	}
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.5, 500}, {0.99, 990}, {0.999, 999}, {1, 1000}} {
		got := l.quantile(tc.q)
		if got.US != tc.want || got.N != 1000 {
			t.Errorf("quantile(%v) = %+v, want {US:%v N:1000}", tc.q, got, tc.want)
		}
	}
	if got := (&latencies{}).quantile(0.5); got.N != 0 {
		t.Errorf("empty quantile = %+v, want zero", got)
	}
}

func TestFailedOpsMissEveryLimit(t *testing.T) {
	var l latencies
	for i := 0; i < 98; i++ {
		l.add(time.Microsecond)
	}
	l.addFailed()
	l.addFailed()
	if got := l.quantile(0.99); got.US != failedUS {
		t.Errorf("p99 with 2%% failed = %v, want %v", got.US, failedUS)
	}
	if got := l.quantile(0.5); got.US != 1 {
		t.Errorf("p50 = %v, want 1", got.US)
	}
	if got := l.meanUS(); got != 1 {
		t.Errorf("mean = %v, want 1 (failures excluded)", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100, Weight: 1},
		// Two children overlapping each other on [20, 30): together they
		// cover [10, 40), 30 units, not 40.
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 30, Weight: 1},
		{ID: 3, Parent: 1, Name: "child", Start: 20, End: 40, Weight: 1},
		// A child sticking out of its parent counts only inside it.
		{ID: 4, Parent: 1, Name: "late", Start: 90, End: 120, Weight: 1},
		// A sampled span stands for Weight requests.
		{ID: 5, Name: "sampled", Start: 0, End: 10, Weight: 16},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"parent": 60, "child": 40, "late": 30, "sampled": 160}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self[%s] = %v, want %v", name, got[name], w)
		}
	}
}

func TestNestPhases(t *testing.T) {
	job := span{ID: 10, Start: 0, End: 100}
	phases := []span{
		{ID: 11, Name: "merge", Start: 10, End: 90},
		{ID: 12, Name: "cpu_merge", Start: 15, End: 85},
		{ID: 13, Name: "flush_table", Start: 20, End: 30},
		{ID: 14, Name: "manifest_apply", Start: 90, End: 95},
		{ID: 15, Name: "twin", Start: 20, End: 30},
	}
	want := map[int64]int64{11: 10, 12: 11, 13: 12, 14: 10, 15: 13}
	for _, s := range nestPhases(job, phases) {
		if s.Parent != want[s.ID] {
			t.Errorf("phase %s parent = %d, want %d", s.Name, s.Parent, want[s.ID])
		}
	}
}

func TestCheckValueRejectsCorruption(t *testing.T) {
	key := makeKey(nil, 42)
	v := makeValue(nil, key, 7, 512)
	seq, _, err := checkValue(key, v, 512, nil)
	if err != nil || seq != 7 {
		t.Fatalf("checkValue(good) = %d, %v", seq, err)
	}
	for name, mutate := range map[string]func([]byte) []byte{
		"filler byte": func(b []byte) []byte { b[100] ^= 1; return b },
		"zero half":   func(b []byte) []byte { b[500] = 1; return b },
		"sequence":    func(b []byte) []byte { b[keySize+7]++; return b },
		"key":         func(b []byte) []byte { copy(b, makeKey(nil, 43)); return b },
		"truncated":   func(b []byte) []byte { return b[:511] },
	} {
		bad := mutate(append([]byte(nil), v...))
		if _, _, err := checkValue(key, bad, 512, nil); err == nil {
			t.Errorf("checkValue accepted a value with a corrupted %s", name)
		}
	}
}

func TestKeysSortInIndexOrder(t *testing.T) {
	prev := ""
	for _, i := range []uint64{0, 1, 9, 10, 99, 100, 399_999, 1_000_000} {
		k := string(makeKey(nil, i))
		if len(k) != keySize || k <= prev {
			t.Fatalf("key %q for %d: wrong size or order after %q", k, i, prev)
		}
		got, err := parseKey([]byte(k))
		if err != nil || got != i {
			t.Fatalf("parseKey(%q) = %d, %v", k, got, err)
		}
		prev = k
	}
}

func TestServedStaleness(t *testing.T) {
	s := newServed()
	key := makeKey(nil, 3)
	read := func(seq uint64, floor int64) error {
		_, err := s.check(key, makeValue(nil, key, seq, serveValue), floor, nil)
		return err
	}
	// Put A is sent and acknowledged; then put B is sent and
	// acknowledged. A read sent after B's ack must return B.
	seqA, sentA := s.newWrite(), s.clock.Add(1)
	s.acked(3, seqA, sentA)
	seqB, sentB := s.newWrite(), s.clock.Add(1)
	floorBeforeB := s.lastSent[3].Load()
	s.acked(3, seqB, sentB)
	floor := s.lastSent[3].Load()
	if err := read(seqB, floor); err != nil {
		t.Errorf("latest write rejected: %v", err)
	}
	if err := read(seqA, floor); err == nil {
		t.Error("stale write accepted after a later put was acknowledged")
	}
	if err := read(4, floor); err == nil {
		t.Error("preloaded value accepted after two acknowledged puts")
	}
	// A read sent while B was in flight may return A or B.
	if err := read(seqA, floorBeforeB); err != nil {
		t.Errorf("write concurrent with the read rejected: %v", err)
	}
	// A write still in flight may be read.
	seqC := s.newWrite()
	if err := read(seqC, floor); err != nil {
		t.Errorf("in-flight write rejected: %v", err)
	}
	// A write the server refused must never be read.
	seqD := s.newWrite()
	s.setStatus(seqD, statusShed)
	if err := read(seqD, 0); err == nil {
		t.Error("refused write accepted")
	}
	if err := read(seqD+1, 0); err == nil {
		t.Error("never-sent write accepted")
	}
}

func TestStepPassRequiresLimitAndNoBacklog(t *testing.T) {
	limit := 2 * time.Millisecond
	for _, tc := range []struct {
		name string
		st   stepResult
		want bool
	}{
		{"within limit", stepResult{Rate: 1000, P99: pctl{US: 1500}, BacklogEnd: 1}, true},
		{"p99 over limit", stepResult{Rate: 1000, P99: pctl{US: 2500}}, false},
		{"failures", stepResult{Rate: 1000, P99: pctl{US: failedUS}}, false},
		// 1000/s sustains 2 requests outstanding within 2 ms.
		{"growing backlog", stepResult{Rate: 1000, P99: pctl{US: 100}, BacklogEnd: 3}, false},
	} {
		if got := tc.st.passes(limit); got != tc.want {
			t.Errorf("%s: passes = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestBacklog(t *testing.T) {
	ms := int64(time.Millisecond)
	// One request due each millisecond, served one at a time in 5 ms:
	// the backlog grows by one per due time.
	due := []int64{0, 1 * ms, 2 * ms, 3 * ms, 4 * ms}
	done := []int64{25 * ms, 5 * ms, 10 * ms, 15 * ms, 20 * ms}
	maxOpen, atEnd := backlog(due, done, 5*ms)
	if maxOpen != 5 || atEnd != 4 {
		t.Errorf("serial server: backlog = %d, %d at end; want 5, 4", maxOpen, atEnd)
	}
	// A server faster than the arrivals never holds more than one.
	done = []int64{ms / 2, ms + ms/2, 2*ms + ms/2, 3*ms + ms/2, 4*ms + ms/2}
	maxOpen, atEnd = backlog(due, done, 5*ms)
	if maxOpen != 1 || atEnd != 0 {
		t.Errorf("fast server: backlog = %d, %d at end; want 1, 0", maxOpen, atEnd)
	}
}

// fakeKV is an in-memory kvClient that takes delay per operation.
type fakeKV struct {
	delay time.Duration
	mu    sync.Mutex
	data  map[string][]byte
}

func newFakeKV(delay time.Duration) *fakeKV {
	f := &fakeKV{delay: delay, data: map[string][]byte{}}
	for i := 0; i < serveKeys; i++ {
		k := makeKey(nil, uint64(i))
		f.data[string(k)] = makeValue(nil, k, uint64(i)+1, serveValue)
	}
	return f
}

func (f *fakeKV) Get(key []byte) ([]byte, error) {
	time.Sleep(f.delay)
	f.mu.Lock()
	defer f.mu.Unlock()
	v, ok := f.data[string(key)]
	if !ok {
		return nil, fcae.ErrNotFound
	}
	return append([]byte(nil), v...), nil
}

func (f *fakeKV) Put(key, value []byte) error {
	time.Sleep(f.delay)
	f.mu.Lock()
	f.data[string(key)] = append([]byte(nil), value...)
	f.mu.Unlock()
	return nil
}

func (f *fakeKV) Scan(start []byte, limit int) ([]fcae.KV, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	i, err := parseKey(start)
	if err != nil {
		return nil, err
	}
	var out []fcae.KV
	for ; int(i) < serveKeys && len(out) < limit; i++ {
		k := makeKey(nil, i)
		out = append(out, fcae.KV{Key: k, Value: f.data[string(k)]})
	}
	return out, nil
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	const delay = 2 * time.Millisecond
	sr := newServeRun(newFakeKV(delay), 1, nil, newResult())
	st := sr.runStep(2000, 100*time.Millisecond)
	if st.Sent != 200 || st.Failed != 0 || sr.res.attempted != 200 || sr.res.failed != 0 {
		t.Fatalf("sent %d failed %d, result %d/%d; want 200 sent, none failed: %v",
			st.Sent, st.Failed, sr.res.attempted, sr.res.failed, sr.res.errs)
	}
	if p := st.all.quantile(0); p.US < float64(delay.Microseconds()) {
		t.Errorf("fastest request took %vµs, less than the client's %v", p.US, delay)
	}
	// The fake serves every request concurrently, so nothing queues.
	if st.BacklogMax >= 100 {
		t.Errorf("backlog reached %d with a server that keeps up", st.BacklogMax)
	}
	sr.readBack(sr.res)
	if sr.res.failed != 0 {
		t.Errorf("read-back failed: %v", sr.res.errs)
	}
}

func TestOpenLoopCountsLatenessAndBacklog(t *testing.T) {
	// One request may be in flight and each takes 5 ms, but one is due
	// every millisecond: the generator falls behind, and every request
	// is timed from its due time, not from when it was finally sent.
	const delay = 5 * time.Millisecond
	sr := newServeRun(newFakeKV(delay), 1, nil, newResult())
	sr.outstanding = 1
	st := sr.runStep(1000, 20*time.Millisecond)
	if st.Sent != 20 || st.Failed != 0 {
		t.Fatalf("sent %d failed %d", st.Sent, st.Failed)
	}
	// Request i is sent no earlier than 5i ms, 4i ms after it was due.
	if late := st.late.quantile(1); late.US < 4*19*1000 {
		t.Errorf("generator lateness %vµs, want at least %dµs", late.US, 4*19*1000)
	}
	if worst := st.all.quantile(1); worst.US < (5*20-19)*1000 {
		t.Errorf("slowest request %vµs from due, want at least %dµs", worst.US, (5*20-19)*1000)
	}
	if st.BacklogEnd < 10 || st.BacklogMax < 10 {
		t.Errorf("backlog max %d, at end %d; want both >= 10", st.BacklogMax, st.BacklogEnd)
	}
	if st.passes(10 * time.Millisecond) {
		t.Error("an overloaded step passed")
	}
}

func TestAmplification(t *testing.T) {
	counters := func(flush, compaction, written int64) snap {
		return snap{m: fcae.Metrics{Counters: map[string]int64{"flush_bytes": flush, "compaction_write_bytes": compaction, "write_bytes": written}}}
	}
	if got := writeAmp(counters(50, 100, 100), counters(150, 400, 300)); got != 2 {
		t.Errorf("writeAmp = %v, want 2 (400 table bytes per 200 written)", got)
	}
	if got := writeAmp(counters(0, 0, 100), counters(50, 0, 100)); got != 0 {
		t.Errorf("writeAmp with nothing written = %v, want 0", got)
	}
	// 1000 keys × (16 + 84) bytes live = 100000; tables hold 150000.
	if got := spaceAmp(150000, 1000, 16, 84); got != 1.5 {
		t.Errorf("spaceAmp = %v, want 1.5", got)
	}
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s, benchmark %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json lists %d workloads, want %d", len(spec.Workloads), len(workloadOrder))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadOrder[i] {
			t.Errorf("workload %d: %s, want %s", i, w.Name, workloadOrder[i])
		}
	}
}

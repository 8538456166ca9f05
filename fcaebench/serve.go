package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fcae"
)

const (
	serveKeys  = 20_000
	serveValue = 256
	serveConns = 2
	// serveOutstanding bounds requests in flight; the generator waits
	// (and its lateness shows) once this many are outstanding. It equals
	// the client's pipeline capacity, 2 conns × 128.
	serveOutstanding = 256
	// serveDeepWorkers is how many requests the throughput phase keeps in
	// flight, a quarter of the client's pipeline capacity.
	serveDeepWorkers = 64
	serveScanPage    = 1000
	serveProbeScans  = 8000
	serveTick        = time.Millisecond
	serveWarmup      = 500 * time.Millisecond
)

// Shares of the timed phase: each open-loop ladder step, the sequential
// closed loop (one request in flight) and the deep closed loop. They sum
// to 1.
const (
	serveStepShare       = 0.04
	serveSequentialShare = 0.42
	serveDeepShare       = 0.42
)

// kvClient is the part of fcae.Client the serve workload drives; tests
// substitute an in-memory fake.
type kvClient interface {
	Get(key []byte) ([]byte, error)
	Put(key, value []byte) error
	Scan(start []byte, limit int) ([]fcae.KV, error)
}

// Write states in served.status besides a positive acknowledgement tick.
const (
	statusPending = 0  // not acknowledged (yet, or the outcome is unknown)
	statusShed    = -1 // refused by admission control, so never applied
)

// served tracks every write sent to the server on a logical clock, so that
// a Get's answer can be checked for staleness. A Get is stale when some
// Put to its key was acknowledged before the Get was sent, and that Put
// itself was sent after the write the Get returned had been acknowledged.
type served struct {
	clock atomic.Int64
	// lastSent[key] is the highest send tick of an acknowledged Put.
	lastSent []atomic.Int64

	mu sync.Mutex
	// status[seq] is the write's acknowledgement tick or a status above;
	// it grows as writes are sent.
	status []int64
}

func newServed() *served {
	s := &served{status: make([]int64, serveKeys+1), lastSent: make([]atomic.Int64, serveKeys)}
	for seq := 1; seq <= serveKeys; seq++ {
		s.status[seq] = 1 // the preload, acknowledged before anything was sent
	}
	s.clock.Store(1)
	return s
}

// newWrite allocates the next write sequence.
func (s *served) newWrite() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.status = append(s.status, statusPending)
	return uint64(len(s.status) - 1)
}

func (s *served) setStatus(seq uint64, st int64) {
	s.mu.Lock()
	s.status[seq] = st
	s.mu.Unlock()
}

// acked records a successful Put sent at tick sent.
func (s *served) acked(key int, seq uint64, sent int64) {
	s.setStatus(seq, s.clock.Add(1))
	for {
		cur := s.lastSent[key].Load()
		if cur >= sent || s.lastSent[key].CompareAndSwap(cur, sent) {
			return
		}
	}
}

// check verifies a value read for key: well formed, written for that key,
// not refused, and not stale against floor, the key's lastSent when the
// read was sent.
func (s *served) check(key []byte, v []byte, floor int64, scratch []byte) ([]byte, error) {
	seq, scratch, err := checkValue(key, v, serveValue, scratch)
	if err != nil {
		return scratch, err
	}
	s.mu.Lock()
	st := int64(statusPending)
	known := seq != 0 && seq < uint64(len(s.status))
	if known {
		st = s.status[seq]
	}
	s.mu.Unlock()
	switch {
	case !known:
		return scratch, fmt.Errorf("key %s: seq %d was never written", key, seq)
	case st == statusShed:
		return scratch, fmt.Errorf("key %s: returned write %d, which the server refused", key, seq)
	case st > 0 && st < floor:
		return scratch, fmt.Errorf("key %s: stale write %d, acknowledged before a later acknowledged put was sent", key, seq)
	}
	return scratch, nil
}

// stepResult is one open-loop step's outcome.
type stepResult struct {
	Rate       float64 `json:"rate"`
	Sent       int     `json:"sent"`
	Failed     int     `json:"failed"`
	P50        pctl    `json:"p50"`
	P99        pctl    `json:"p99"`
	LateP99    pctl    `json:"gen_late_p99"`
	BacklogMax int64   `json:"backlog_max"`
	BacklogEnd int64   `json:"backlog_end"`
	Pass       bool    `json:"pass"`

	getL, putL, all latencies
	late            latencies
	clientNS        int64 // summed client call time, issue to response
}

// passes reports whether a step met the p99 limit without a growing
// backlog: at the step's end no more requests may be outstanding than
// the rate sustains within the limit.
func (st *stepResult) passes(limit time.Duration) bool {
	return st.P99.US <= float64(limit.Microseconds()) &&
		float64(st.BacklogEnd) <= st.Rate*limit.Seconds()
}

type serveRun struct {
	cl          kvClient
	s           *served
	tr          *tracer
	rng         *rand.Rand
	z           *zipfian
	outstanding int   // bound on requests in flight
	req         int64 // next request ID, advanced by the generator

	mu  sync.Mutex // guards res from request goroutines
	res *result
}

func newServeRun(cl kvClient, seed int64, tr *tracer, r *result) *serveRun {
	rng := rand.New(rand.NewSource(seed))
	return &serveRun{cl: cl, s: newServed(), tr: tr, rng: rng, z: newZipfian(serveKeys, rng), outstanding: serveOutstanding, res: r}
}

// runStep drives one open-loop step. Requests arrive in batches every
// serveTick (rate×serveTick per batch, so rates must be multiples of
// 1/serveTick): request i is due at its batch's tick and is timed from
// then, however late the generator issues it.
func (sr *serveRun) runStep(rate float64, dur time.Duration) *stepResult {
	perTick := int(rate * serveTick.Seconds())
	n := perTick * int(dur/serveTick)
	st := &stepResult{Rate: rate, Sent: n}
	due := make([]int64, n)  // offsets from the step's start
	done := make([]int64, n) // completion offsets, failed requests too
	lat := make([]int64, n)
	isPut := make([]bool, n)
	client := make([]int64, n)
	sem := make(chan struct{}, sr.outstanding)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		due[i] = int64(time.Duration(i/perTick) * serveTick)
		dueAt := start.Add(time.Duration(due[i]))
		if wait := time.Until(dueAt); wait > 0 {
			preciseSleep(wait)
		}
		sem <- struct{}{}
		issued := time.Now()
		st.late.add(issued.Sub(dueAt))
		k := int(sr.z.next())
		var seq uint64
		if sr.rng.Intn(2) == 0 {
			seq = sr.s.newWrite()
			isPut[i] = true
		}
		req := sr.req
		sr.req++
		wg.Add(1)
		go func(i, k int, seq uint64, dueAt, issued time.Time, req int64) {
			defer wg.Done()
			lat[i], client[i] = sr.do(k, seq, dueAt, issued, req)
			done[i] = int64(time.Since(start))
			<-sem
		}(i, k, seq, dueAt, issued, req)
	}
	wg.Wait()
	st.BacklogMax, st.BacklogEnd = backlog(due, done, int64(dur))
	for i, d := range lat {
		l := &st.getL
		if isPut[i] {
			l = &st.putL
		}
		if d < 0 {
			st.Failed++
			l.addFailed()
			st.all.addFailed()
			continue
		}
		l.add(time.Duration(d))
		st.all.add(time.Duration(d))
		st.clientNS += client[i]
	}
	st.P50 = st.all.quantile(0.5)
	st.P99 = st.all.quantile(0.99)
	st.LateP99 = st.late.quantile(0.99)
	st.Pass = st.passes(serveP99Limit)
	return st
}

// backlog returns the most requests that were due but not yet completed
// at any request's due time, and how many were still open at end. due is
// ascending; done holds each request's completion time.
func backlog(due, done []int64, end int64) (maxOpen, openAtEnd int64) {
	sorted := append([]int64(nil), done...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	completed := 0
	for i, t := range due {
		for completed < len(sorted) && sorted[completed] <= t {
			completed++
		}
		maxOpen = max(maxOpen, int64(i+1-completed))
	}
	for _, t := range done {
		if t > end {
			openAtEnd++
		}
	}
	return maxOpen, openAtEnd
}

// do issues one Get (seq 0) or Put and checks the answer. It returns the
// latency from the due time and the client call's own duration, or -1
// for a failed request.
func (sr *serveRun) do(k int, seq uint64, due, issued time.Time, req int64) (int64, int64) {
	var buf *spanBuf
	if req%sampleEvery == 0 {
		buf = sr.tr.buffer()
	}
	op := -1
	if buf != nil {
		op = buf.beginAt("op", 0, req, int64(due.Sub(sr.tr.origin)))
	}
	key := makeKey(nil, uint64(k))
	var err error
	var callNS int64
	if seq != 0 {
		val := makeValue(nil, key, seq, serveValue)
		h := buf.begin("client.put", buf.id(op), req)
		sent := sr.s.clock.Add(1)
		err = sr.cl.Put(key, val)
		callNS = int64(time.Since(issued))
		buf.end(h)
		switch {
		case err == nil:
			sr.s.acked(k, seq, sent)
		case errors.Is(err, fcae.ErrServerBusy):
			sr.s.setStatus(seq, statusShed)
		}
		if err != nil {
			err = fmt.Errorf("put %s: %w", key, err)
		}
	} else {
		h := buf.begin("client.get", buf.id(op), req)
		floor := sr.s.lastSent[k].Load()
		sr.s.clock.Add(1)
		var v []byte
		v, err = sr.cl.Get(key)
		callNS = int64(time.Since(issued))
		buf.end(h)
		if err == nil {
			_, err = sr.s.check(key, v, floor, nil)
		} else {
			err = fmt.Errorf("get %s: %w", key, err)
		}
	}
	d := int64(time.Since(due))
	buf.end(op)
	sr.mu.Lock()
	sr.res.attempted++
	if err != nil {
		sr.res.fail(err)
	}
	sr.mu.Unlock()
	if err != nil {
		return -1, 0
	}
	return d, callNS
}

// closedResult is a closed-loop phase's outcome.
type closedResult struct {
	opsS       float64 // completed requests per second
	getL, putL latencies
	windows    []int // requests completed in each second
}

// closedLoop keeps workers requests in flight for dur, each worker
// sending its next request when the previous one completes.
func (sr *serveRun) closedLoop(workers int, dur time.Duration, seed int64) *closedResult {
	var wg sync.WaitGroup
	type lats struct {
		get, put latencies
		windows  []int
	}
	per := make([]lats, workers)
	var done, reqs atomic.Int64
	reqs.Store(sr.req)
	start := time.Now()
	deadline := start.Add(dur)
	for w := range per {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			z := *sr.z // shares the precomputed constants
			z.rng = rand.New(rand.NewSource(seed*1000 + int64(w)))
			for t := time.Now(); t.Before(deadline); t = time.Now() {
				var seq uint64
				l := &per[w].get
				if z.rng.Intn(2) == 0 {
					seq = sr.s.newWrite()
					l = &per[w].put
				}
				d, _ := sr.do(int(z.next()), seq, t, t, reqs.Add(1))
				if d < 0 {
					l.addFailed()
					continue
				}
				l.add(time.Duration(d))
				done.Add(1)
				per[w].windows = countIn(per[w].windows, int(time.Since(start)/time.Second), 1)
			}
		}(w)
	}
	wg.Wait()
	sr.req = reqs.Load() + 1
	res := &closedResult{opsS: float64(done.Load()) / time.Since(start).Seconds()}
	for w := range per {
		res.getL.merge(&per[w].get)
		res.putL.merge(&per[w].put)
		for i, n := range per[w].windows {
			res.windows = countIn(res.windows, i, n)
		}
	}
	return res
}

// runServe is serve_mixed: an in-process server and one client with two
// connections run YCSB-A (50% Get, 50% Put, zipfian keys): an open loop
// over a fixed rate ladder, then a sequential closed loop that measures
// per-request latency, then a deep closed loop that measures throughput.
func runServe(c config, r *result) (err error) {
	var tr *tracer
	if c.trace {
		tr = newTracer()
	}
	l := &listener{tr: tr}
	type pair struct {
		srv *fcae.Server
		cl  *fcae.Client
	}
	release := func(p pair) error { return errors.Join(p.cl.Close(), p.srv.Close()) }
	p, err := setupRepeated(c, r, func(dir string) (pair, error) {
		srv, err := fcae.OpenServer(dir, storeOptions(l, false), fcae.ServerConfig{Addr: "127.0.0.1:0"})
		if err != nil {
			return pair{}, err
		}
		if err := errors.Join(preload(srv.DB(), serveKeys, serveValue), srv.DB().WaitIdle()); err != nil {
			_ = srv.Close()
			return pair{}, err
		}
		cl, err := fcae.DialServer(fcae.ClientOptions{Addr: srv.Addr().String(), Conns: serveConns})
		if err != nil {
			_ = srv.Close()
			return pair{}, err
		}
		return pair{srv, cl}, nil
	}, release)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, release(p)) }()
	db := p.srv.DB()
	sr := newServeRun(p.cl, c.seed, tr, r)

	// Warm the connections, goroutine stacks and caches before timing;
	// the warm-up's requests are checked and counted like the rest.
	sr.runStep(serveLadder[0], serveWarmup)

	total := time.Duration(c.seconds * float64(time.Second))
	smp := startSampler(db)
	l.timing.Store(true)
	a := takeSnap(db)
	var steps []*stepResult
	var late latencies
	var backlog int64
	for _, rate := range serveLadder {
		st := sr.runStep(rate, time.Duration(float64(total)*serveStepShare))
		steps = append(steps, st)
		late.merge(&st.late)
		backlog = max(backlog, st.BacklogMax)
		r.layers[fmt.Sprintf("serve.step_%d.p99_us", int(rate))] = st.P99.US
		if st.Pass {
			r.layers["serve.max_ops_s"] = rate
		}
	}
	seq := sr.closedLoop(1, time.Duration(float64(total)*serveSequentialShare), c.seed)
	deep := sr.closedLoop(serveDeepWorkers, time.Duration(float64(total)*serveDeepShare), c.seed+1)
	b := takeSnap(db)
	l.timing.Store(false)
	var tableBytes float64
	r.e2e["mem_peak_mb"], tableBytes = smp.finish()
	r.e2e["space_amp"] = spaceAmp(tableBytes, serveKeys, keySize, serveValue)
	r.e2e["ops_s"] = deep.opsS
	r.samples["ops_s"] = len(deep.getL.ns) + len(deep.putL.ns)
	r.pct("put_p50_us", seq.putL.quantile(0.5))
	r.pct("get_p50_us", seq.getL.quantile(0.5))
	r.detail["ladder"] = steps
	r.detail["put"] = seq.putL.profile()
	r.detail["get"] = seq.getL.profile()
	r.detail["deep_put"] = deep.putL.profile()
	r.detail["deep_get"] = deep.getL.profile()
	r.detail["windows"] = deep.windows

	var sent, ok, clientNS int64
	for _, st := range steps {
		sent += int64(st.Sent)
		ok += int64(st.Sent - st.Failed)
		clientNS += st.clientNS
	}
	r.e2e["write_amp"] = writeAmp(a, b)

	closedOps := len(seq.getL.ns) + len(seq.putL.ns) + len(deep.getL.ns) + len(deep.putL.ns)
	fillLayers(r, l, a, b, int64(closedOps)+sent, tr)
	L := r.layers
	r.layerPct("op.put.p999_us", seq.putL.quantile(0.999))
	r.layerPct("op.get.p99_us", seq.getL.quantile(0.99))
	gn, gs := histDelta(a, b, "server_op_get_nanos")
	pn, ps := histDelta(a, b, "server_op_put_nanos")
	L["server.get_mean_us"] = ratio(float64(gs), float64(gn)) / 1e3
	L["server.put_mean_us"] = ratio(float64(ps), float64(pn)) / 1e3
	// The open-loop steps' client time per request minus the server's
	// time per request (the histograms also hold the closed loops').
	L["server.wire_overhead_us"] = ratio(float64(clientNS), float64(ok))/1e3 - ratio(float64(gs+ps), float64(gn+pn))/1e3
	L["server.group_ratio"] = ratio(float64(delta(a, b, "server_grouped_writes")), float64(delta(a, b, "server_group_commits")))
	L["server.busy_shed"] = float64(delta(a, b, "server_busy_queue") + delta(a, b, "server_busy_stall"))
	L["serve.gen_late_us_p99"] = late.quantile(0.99).US
	L["serve.backlog_max"] = float64(backlog)

	sr.scanProbe(rand.New(rand.NewSource(c.seed+1)), r)
	sr.readBack(r)
	if tr != nil {
		return writeSpans(spansPath(c), tr.all())
	}
	return nil
}

// scanChecked reads up to limit entries from key i through the client
// and checks order, count and every value.
func (sr *serveRun) scanChecked(i, limit int) (time.Duration, error) {
	key := makeKey(nil, uint64(i))
	t := time.Now()
	kvs, err := sr.cl.Scan(key, limit)
	d := time.Since(t)
	if err != nil {
		return d, fmt.Errorf("scan: %w", err)
	}
	if want := min(limit, serveKeys-i); len(kvs) != want {
		return d, fmt.Errorf("scan from %d: %d entries, want %d", i, len(kvs), want)
	}
	var scratch []byte
	for j, kv := range kvs {
		key = makeKey(key, uint64(i+j))
		if string(kv.Key) != string(key) {
			return d, fmt.Errorf("scan from %d: key %q at offset %d, want %s", i, kv.Key, j, key)
		}
		if scratch, err = sr.s.check(key, kv.Value, sr.s.lastSent[i+j].Load(), scratch); err != nil {
			return d, fmt.Errorf("scan: %w", err)
		}
	}
	return d, nil
}

// scanProbe times a fixed number of served scans once the load has
// stopped.
func (sr *serveRun) scanProbe(rng *rand.Rand, r *result) {
	var l latencies
	for j := 0; j < serveProbeScans; j++ {
		d, err := sr.scanChecked(rng.Intn(serveKeys), scanNexts+1)
		r.attempted++
		if err != nil {
			r.fail(err)
			l.addFailed()
			continue
		}
		l.add(d)
	}
	r.pct("scan_p50_us", l.quantile(0.5))
	r.detail["scan"] = l.profile()
	r.layerPct("op.scan.p90_us", l.quantile(0.9))
}

// readBack checks every key through the client once all writes are done.
func (sr *serveRun) readBack(r *result) {
	for i := 0; i < serveKeys; i += serveScanPage {
		r.attempted++
		if _, err := sr.scanChecked(i, serveScanPage); err != nil {
			r.fail(fmt.Errorf("read-back: %w", err))
		}
	}
}

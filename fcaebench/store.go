package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"fcae"
)

// Workload sizes. Each data set is far larger than the store's 8 MiB
// block cache and 4 MiB memtable except serve_mixed's, which fits in the
// cache (see README.md).
const (
	writeKeys  = 400_000
	writeValue = 512

	readKeys       = 100_000
	readValue      = 1024
	readOverwrites = readKeys / 2
	readWarmGets   = 10_000
	readWarmScans  = 100
	readWorkers    = 2
	readScanFrac   = 0.05

	scanNexts = 50

	// The read probe after a write workload's timed phase: Gets and scans
	// in alternating blocks, so both sample the whole probe window.
	probeGets   = 100_000
	probeScans  = 2000
	probeBlocks = 100

	// setupRuns is how many times each workload sets up; setup_s is the
	// median and the last store set up is the one measured.
	setupRuns = 3
)

var workloadSizes = map[string]map[string]any{
	"write_random":      {"keys": writeKeys, "key_bytes": keySize, "value_bytes": writeValue, "logical_mb": writeKeys * (keySize + writeValue) / mb, "writers": 1},
	"write_random_fcae": {"keys": writeKeys, "key_bytes": keySize, "value_bytes": writeValue, "logical_mb": writeKeys * (keySize + writeValue) / mb, "writers": 1, "device_channels": 1},
	"read_mostly":       {"keys": readKeys, "key_bytes": keySize, "value_bytes": readValue, "logical_mb": readKeys * (keySize + readValue) / mb, "overwrites": readOverwrites, "readers": readWorkers, "scan_frac": readScanFrac, "scan_nexts": scanNexts},
	"serve_mixed":       {"keys": serveKeys, "key_bytes": keySize, "value_bytes": serveValue, "logical_mb": float64(serveKeys*(keySize+serveValue)) / mb, "conns": serveConns, "ladder": serveLadder, "p99_limit_us": serveP99Limit.Microseconds(), "deep_in_flight": serveDeepWorkers},
}

// countIn adds n to counts[i], growing counts as needed.
func countIn(counts []int, i, n int) []int {
	for len(counts) <= i {
		counts = append(counts, 0)
	}
	counts[i] += n
	return counts
}

// unknownSeq marks a key whose last write failed, so either its old or
// its new value may be stored.
const unknownSeq = ^uint64(0)

func storeOptions(l *listener, device bool) fcae.Options {
	o := fcae.Options{EventListener: l}
	if device {
		o.DispatchConfig.Devices = []fcae.CompactionExecutor{fcae.MustNewEngineExecutor(fcae.MultiInputEngineConfig())}
	}
	return o
}

// preload writes keys [0, n) in key order with sequence index+1.
func preload(db *fcae.DB, n, size int) error {
	var key, val []byte
	for i := 0; i < n; i++ {
		key = makeKey(key, uint64(i))
		val = makeValue(val, key, uint64(i)+1, size)
		if err := db.Put(key, val); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

// setupRepeated runs setup setupRuns times in fresh directories, records
// the median time as setup_s, and returns the last store.
func setupRepeated[T any](c config, r *result, setup func(dir string) (T, error), release func(T) error) (T, error) {
	var times []float64
	var last T
	for i := 0; i < setupRuns; i++ {
		dir := filepath.Join(c.workDir, fmt.Sprintf("db%d", i))
		t0 := time.Now()
		v, err := setup(dir)
		if err != nil {
			return last, err
		}
		times = append(times, since(t0))
		if i < setupRuns-1 {
			if err := release(v); err != nil {
				return last, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return last, err
			}
			continue
		}
		last = v
	}
	r.e2e["setup_s"] = median(times)
	r.detail["setup_s_each"] = times
	return last, nil
}

// runWrite is write_random (CPU lane) and write_random_fcae (one engine
// device channel): one goroutine overwrites uniformly random keys of a
// preloaded store for the timed phase.
func runWrite(c config, r *result, device bool) (err error) {
	var tr *tracer
	if c.trace {
		tr = newTracer()
	}
	l := &listener{tr: tr}
	db, err := setupRepeated(c, r, func(dir string) (*fcae.DB, error) {
		db, err := fcae.Open(dir, storeOptions(l, device))
		if err != nil {
			return nil, err
		}
		if err := errors.Join(preload(db, writeKeys, writeValue), db.WaitIdle()); err != nil {
			_ = db.Close()
			return nil, err
		}
		return db, nil
	}, (*fcae.DB).Close)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, db.Close()) }()

	expected := make([]uint64, writeKeys)
	for i := range expected {
		expected[i] = uint64(i) + 1
	}
	seq := uint64(writeKeys)
	rng := rand.New(rand.NewSource(c.seed))
	buf := tr.buffer()
	var lat latencies
	var key, val []byte
	var puts int64
	var windows []int

	smp := startSampler(db)
	l.timing.Store(true)
	a := takeSnap(db)
	deadline := a.at.Add(time.Duration(c.seconds * float64(time.Second)))
	for req := int64(0); ; req++ {
		i := rng.Int63n(writeKeys)
		seq++
		op := buf.begin("op", 0, req)
		key = makeKey(key, uint64(i))
		val = makeValue(val, key, seq, writeValue)
		h := buf.begin("lsm.put", buf.id(op), req)
		tr.setWriter(buf.id(h))
		t := time.Now()
		err := db.Put(key, val)
		end := time.Now()
		buf.end(h)
		tr.setWriter(0)
		buf.end(op)
		r.attempted++
		if err != nil {
			r.fail(fmt.Errorf("put %s: %w", key, err))
			lat.addFailed()
			expected[i] = unknownSeq
		} else {
			puts++
			lat.add(end.Sub(t))
			expected[i] = seq
			windows = countIn(windows, int(end.Sub(a.at)/time.Second), 1)
		}
		if end.After(deadline) {
			break
		}
	}
	b := takeSnap(db)
	l.timing.Store(false)
	var tableBytes float64
	r.e2e["mem_peak_mb"], tableBytes = smp.finish()
	r.e2e["space_amp"] = spaceAmp(tableBytes, writeKeys, keySize, writeValue)
	wall := b.at.Sub(a.at).Seconds()
	r.e2e["ops_s"] = float64(puts) / wall
	r.samples["ops_s"] = int(puts)
	r.pct("put_p50_us", lat.quantile(0.5))
	r.layerPct("op.put.p999_us", lat.quantile(0.999))
	r.e2e["write_amp"] = writeAmp(a, b)
	r.detail["put"] = lat.profile()
	r.detail["windows"] = windows
	fillLayers(r, l, a, b, puts, tr)

	t0 := time.Now()
	if err := db.WaitIdle(); err != nil {
		return err
	}
	r.detail["drain_s"] = since(t0)
	t0 = time.Now()
	p := &reader{db: db, expected: expected, keys: writeKeys, size: writeValue, res: r}
	p.probe(rand.New(rand.NewSource(c.seed+1)), r)
	r.detail["probe_s"] = since(t0)
	return finishStore(c, r, db, expected, writeValue, tr)
}

// finishStore reads every key back and writes the spans of a traced run.
func finishStore(c config, r *result, db *fcae.DB, expected []uint64, size int, tr *tracer) error {
	t0 := time.Now()
	readBack(db, expected, size, r)
	r.detail["read_back_s"] = since(t0)
	if tr != nil {
		return writeSpans(spansPath(c), tr.all())
	}
	return nil
}

// readBack scans the whole store and checks that every key is present,
// in order, with the value of its last acknowledged write.
func readBack(db *fcae.DB, expected []uint64, size int, r *result) {
	it, err := db.NewIterator()
	if err != nil {
		r.fail(fmt.Errorf("read-back: %w", err))
		return
	}
	var want, scratch []byte
	n := 0
	for ok := it.First(); ok; ok = it.Next() {
		if n >= len(expected) {
			r.fail(fmt.Errorf("read-back: unexpected key %q past the last key", it.Key()))
			break
		}
		want = makeKey(want, uint64(n))
		var seq uint64
		seq, scratch, err = checkValue(want, it.Value(), size, scratch)
		switch {
		case string(it.Key()) != string(want):
			r.fail(fmt.Errorf("read-back: key %q at position %d, want %s", it.Key(), n, want))
		case err != nil:
			r.fail(fmt.Errorf("read-back: %w", err))
		case expected[n] != unknownSeq && seq != expected[n]:
			r.fail(fmt.Errorf("read-back: key %s has seq %d, want %d", want, seq, expected[n]))
		}
		n++
	}
	if err := it.Error(); err != nil {
		r.fail(fmt.Errorf("read-back: %w", err))
	}
	if err := it.Close(); err != nil {
		r.fail(fmt.Errorf("read-back: close: %w", err))
	}
	if n != len(expected) {
		r.fail(fmt.Errorf("read-back: %d keys, want %d", n, len(expected)))
	}
	r.attempted += int64(n)
}

// reader issues checked Gets and scans against a store whose contents
// are known exactly (no writes run concurrently).
type reader struct {
	db       *fcae.DB
	expected []uint64
	windows  []int // operations completed in each second of the timed phase
	keys     int
	size     int
	buf      *spanBuf
	res      *result // receives failures

	key, scratch []byte
	found        int64
	getL, scanL  latencies
}

func (p *reader) get(i uint64, req int64) {
	op := p.buf.begin("op", 0, req)
	p.key = makeKey(p.key, i)
	h := p.buf.begin("lsm.get", p.buf.id(op), req)
	t := time.Now()
	v, err := p.db.Get(p.key)
	d := time.Since(t)
	p.buf.end(h)
	p.res.attempted++
	if err != nil {
		if !errors.Is(err, fcae.ErrNotFound) {
			p.res.fail(fmt.Errorf("get %s: %w", p.key, err))
			p.getL.addFailed()
		} else {
			p.res.fail(fmt.Errorf("get %s: not found", p.key))
			p.getL.add(d)
		}
		p.buf.end(op)
		return
	}
	p.found++
	p.getL.add(d)
	var seq uint64
	seq, p.scratch, err = checkValue(p.key, v, p.size, p.scratch)
	if err == nil && p.expected[i] != unknownSeq && seq != p.expected[i] {
		err = fmt.Errorf("get %s: seq %d, want %d", p.key, seq, p.expected[i])
	}
	if err != nil {
		p.res.fail(err)
	}
	p.buf.end(op)
}

// scan seeks to key i and reads it and the next scanNexts keys.
func (p *reader) scan(i uint64, req int64) {
	op := p.buf.begin("op", 0, req)
	parent := p.buf.id(op)
	t := time.Now()
	h := p.buf.begin("lsm.iter.new", parent, req)
	it, err := p.db.NewIterator()
	p.buf.end(h)
	p.res.attempted++
	if err != nil {
		p.res.fail(fmt.Errorf("scan: %w", err))
		p.scanL.addFailed()
		p.buf.end(op)
		return
	}
	p.key = makeKey(p.key, i)
	h = p.buf.begin("lsm.iter.seek", parent, req)
	ok := it.Seek(p.key)
	p.buf.end(h)
	var bad error
	n := 0
	for ok {
		want := i + uint64(n)
		p.key = makeKey(p.key, want)
		var seq uint64
		seq, p.scratch, err = checkValue(p.key, it.Value(), p.size, p.scratch)
		switch {
		case bad != nil:
		case string(it.Key()) != string(p.key):
			bad = fmt.Errorf("scan from %d: key %q at offset %d, want %s", i, it.Key(), n, p.key)
		case err != nil:
			bad = fmt.Errorf("scan: %w", err)
		case p.expected[want] != unknownSeq && seq != p.expected[want]:
			bad = fmt.Errorf("scan: key %s has seq %d, want %d", p.key, seq, p.expected[want])
		}
		n++
		if n > scanNexts {
			break
		}
		h = p.buf.begin("lsm.iter.next", parent, req)
		ok = it.Next()
		p.buf.end(h)
	}
	h = p.buf.begin("lsm.iter.close", parent, req)
	err = errors.Join(it.Error(), it.Close())
	p.buf.end(h)
	d := time.Since(t)
	p.buf.end(op)
	if want := min(scanNexts+1, p.keys-int(i)); bad == nil && n != want {
		bad = fmt.Errorf("scan from %d: %d entries, want %d", i, n, want)
	}
	if bad == nil && err != nil {
		bad = fmt.Errorf("scan: %w", err)
	}
	if bad != nil {
		p.res.fail(bad)
		p.scanL.addFailed()
		return
	}
	p.scanL.add(d)
}

// probe times a fixed number of uniformly random Gets and scans on a
// store whose contents are known, after a write workload's timed phase.
func (p *reader) probe(rng *rand.Rand, r *result) {
	req := int64(1 << 40) // request IDs distinct from the timed phase's
	for b := 0; b < probeBlocks; b++ {
		for j := 0; j < probeGets/probeBlocks; j++ {
			p.get(uint64(rng.Intn(p.keys)), req)
			req++
		}
		for j := 0; j < probeScans/probeBlocks; j++ {
			p.scan(uint64(rng.Intn(p.keys)), req)
			req++
		}
	}
	p.report(r)
}

func (p *reader) report(r *result) {
	r.detail["get"] = p.getL.profile()
	r.detail["scan"] = p.scanL.profile()
	r.pct("get_p50_us", p.getL.quantile(0.5))
	r.pct("scan_p50_us", p.scanL.quantile(0.5))
	r.layerPct("op.get.p99_us", p.getL.quantile(0.99))
	r.layerPct("op.scan.p90_us", p.scanL.quantile(0.9))
	r.layers["lsm.get.found_frac"] = ratio(float64(p.found), float64(len(p.getL.ns)))
}

// runReadMostly is read_mostly: two goroutines issue 95% zipfian Gets and
// 5% scans against a store whose levels overlap, with no writes.
func runReadMostly(c config, r *result) (err error) {
	var tr *tracer
	if c.trace {
		tr = newTracer()
	}
	l := &listener{tr: tr}
	expected := make([]uint64, readKeys)
	var putL latencies
	var loadAmps []float64
	db, err := setupRepeated(c, r, func(dir string) (*fcae.DB, error) {
		amp, err := loadOverlapping(dir, l, expected, &putL, rand.New(rand.NewSource(c.seed)))
		if err != nil {
			return nil, err
		}
		loadAmps = append(loadAmps, amp)
		db, err := fcae.Open(dir, storeOptions(l, false))
		if err != nil {
			return nil, err
		}
		// Warm the caches with the timed phase's access pattern.
		p := &reader{db: db, expected: expected, keys: readKeys, size: readValue, res: newResult()}
		rng := rand.New(rand.NewSource(c.seed + 2))
		z := newZipfian(readKeys, rng)
		for j := 0; j < readWarmGets; j++ {
			p.get(z.next(), 0)
		}
		for j := 0; j < readWarmScans; j++ {
			p.scan(z.next(), 0)
		}
		if p.res.failed > 0 {
			_ = db.Close()
			return nil, fmt.Errorf("warm-up: %s", p.res.errs[0])
		}
		return db, nil
	}, (*fcae.DB).Close)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, db.Close()) }()
	r.e2e["write_amp"] = median(loadAmps)
	r.detail["put_phase"] = "set-up overwrites"
	r.detail["put"] = putL.profile()
	r.pct("put_p50_us", putL.quantile(0.5))
	r.layerPct("op.put.p999_us", putL.quantile(0.999))

	workers := make([]*reader, readWorkers)
	zipfs := make([]*zipfian, readWorkers)
	for g := range workers {
		workers[g] = &reader{db: db, expected: expected, keys: readKeys, size: readValue, buf: tr.buffer(), res: newResult()}
		zipfs[g] = newZipfian(readKeys, rand.New(rand.NewSource(c.seed*1000+int64(g)+3)))
	}
	smp := startSampler(db)
	l.timing.Store(true)
	a := takeSnap(db)
	deadline := a.at.Add(time.Duration(c.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for g, w := range workers {
		wg.Add(1)
		go func(g int, w *reader) {
			defer wg.Done()
			z := zipfs[g]
			for req := int64(g); ; req += readWorkers {
				if z.rng.Float64() < readScanFrac {
					w.scan(z.next(), req)
				} else {
					w.get(z.next(), req)
				}
				now := time.Now()
				w.windows = countIn(w.windows, int(now.Sub(a.at)/time.Second), 1)
				if !now.Before(deadline) {
					break
				}
			}
		}(g, w)
	}
	wg.Wait()
	b := takeSnap(db)
	l.timing.Store(false)
	var tableBytes float64
	r.e2e["mem_peak_mb"], tableBytes = smp.finish()
	r.e2e["space_amp"] = spaceAmp(tableBytes, readKeys, keySize, readValue)

	all := &reader{res: r}
	var windows []int
	for _, w := range workers {
		for i, n := range w.windows {
			windows = countIn(windows, i, n)
		}
		all.getL.merge(&w.getL)
		all.scanL.merge(&w.scanL)
		all.found += w.found
		r.merge(w.res)
	}
	ops := int64(len(all.getL.ns) + len(all.scanL.ns))
	r.e2e["ops_s"] = float64(ops) / b.at.Sub(a.at).Seconds()
	r.samples["ops_s"] = int(ops)
	all.report(r)
	r.detail["windows"] = windows
	fillLayers(r, l, a, b, ops, tr)
	return finishStore(c, r, db, expected, readValue, tr)
}

// loadOverlapping builds read_mostly's store in dir: a key-order preload,
// then random overwrites of half the keys so that levels overlap, then a
// flush and a clean close. It records each overwrite's latency and
// returns the load's write amplification.
func loadOverlapping(dir string, l *listener, expected []uint64, putL *latencies, rng *rand.Rand) (amp float64, err error) {
	db, err := fcae.Open(dir, storeOptions(l, false))
	if err != nil {
		return 0, err
	}
	defer func() { err = errors.Join(err, db.Close()) }()
	if err := preload(db, readKeys, readValue); err != nil {
		return 0, err
	}
	for i := range expected {
		expected[i] = uint64(i) + 1
	}
	seq := uint64(readKeys)
	var key, val []byte
	for j := 0; j < readOverwrites; j++ {
		i := rng.Intn(readKeys)
		seq++
		key = makeKey(key, uint64(i))
		val = makeValue(val, key, seq, readValue)
		t := time.Now()
		if err := db.Put(key, val); err != nil {
			return 0, fmt.Errorf("overwrite: %w", err)
		}
		putL.add(time.Since(t))
		expected[i] = seq
	}
	if err := errors.Join(db.Flush(), db.WaitIdle()); err != nil {
		return 0, err
	}
	return writeAmp(snap{}, takeSnap(db)), nil
}

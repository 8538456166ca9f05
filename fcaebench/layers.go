package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"fcae"
)

// serveLadder is the serve_mixed open-loop rate ladder in requests per
// second. README.md gives the reasons for the rates and the limit.
var serveLadder = []float64{2000, 4000, 8000, 12000}

const serveP99Limit = 10 * time.Millisecond

// spanLayers are the span names whose self time the traced run reports.
var spanLayers = []string{
	"op", "lsm.put", "lsm.get", "lsm.iter.new", "lsm.iter.seek", "lsm.iter.next", "lsm.iter.close",
	"client.get", "client.put", "lsm.stall.l0_slowdown", "lsm.stall.memtable_full", "lsm.stall.l0_stop",
	"lsm.flush", "compaction", "compaction.dispatch_queue", "compaction.cpu_merge", "compaction.device_merge",
	"compaction.build_images", "compaction.flush_wait",
}

// perLayer lists the per-layer metrics in output order.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"op.put.p999_us", "us"},
		{"op.get.p99_us", "us"},
		{"op.scan.p90_us", "us"},
		{"lsm.stall.count", "count"},
		{"lsm.stall.l0_slowdown_s", "s"},
		{"lsm.stall.memtable_full_s", "s"},
		{"lsm.stall.l0_stop_s", "s"},
		{"lsm.stall.wall_frac", "ratio"},
		{"lsm.flush.count", "count"},
		{"lsm.flush.busy_s", "s"},
		{"lsm.flush.mb_s", "MB/s"},
		{"compaction.count", "count"},
		{"compaction.trivial_frac", "ratio"},
		{"compaction.busy_s", "s"},
		{"compaction.busy_frac", "ratio"},
		{"compaction.read_mb", "MB"},
		{"compaction.write_mb", "MB"},
		{"compaction.mb_s", "MB/s"},
		{"compaction.open_runs_s", "s"},
		{"compaction.merge_s", "s"},
		{"compaction.flush_table_s", "s"},
		{"compaction.manifest_apply_s", "s"},
		{"compaction.pipeline.prefetch_stall_s", "s"},
		{"compaction.pipeline.encode_stall_s", "s"},
		{"compaction.pipeline.submit_stall_s", "s"},
		{"dispatch.device_frac", "ratio"},
		{"dispatch.cpu_jobs", "count"},
		{"dispatch.fallback_fanin", "count"},
		{"dispatch.fallback_arena", "count"},
		{"dispatch.fallback_budget", "count"},
		{"dispatch.fallback_saturated", "count"},
		{"dispatch.arena_high_water_mb", "MB"},
		{"core.mb_s", "MB/s"},
		{"core.modeled_kernel_s", "s"},
		{"core.modeled_pcie_s", "s"},
		{"lsm.iter.new_us_p50", "us"},
		{"lsm.iter.seek_us_p50", "us"},
		{"lsm.iter.next_us_mean", "us"},
		{"lsm.iter.close_us_p50", "us"},
		{"lsm.tables", "count"},
		{"cache.block.hit_ratio", "ratio"},
		{"cache.block.fill_frac", "ratio"},
		{"lsm.tablecache.hit_ratio", "ratio"},
		{"lsm.get.found_frac", "ratio"},
		{"lsm.seek_compactions", "count"},
		{"lsm.commit.group_ratio", "ratio"},
		{"server.get_mean_us", "us"},
		{"server.put_mean_us", "us"},
		{"server.wire_overhead_us", "us"},
		{"server.group_ratio", "ratio"},
		{"server.busy_shed", "count"},
		{"serve.max_ops_s", "1/s"},
		{"serve.gen_late_us_p99", "us"},
		{"serve.backlog_max", "count"},
	}
	for _, rate := range serveLadder {
		defs = append(defs, metricDef{fmt.Sprintf("serve.step_%d.p99_us", int(rate)), "us"})
	}
	defs = append(defs,
		metricDef{"go.cpu_us_per_op", "us"},
		metricDef{"go.alloc_mb_per_op", "MB"},
		metricDef{"go.gc_count", "count"},
		metricDef{"go.gc_pause_s", "s"},
		metricDef{"run.failed_frac", "ratio"},
		metricDef{"trace.spans", "count"},
	)
	for _, name := range spanLayers {
		defs = append(defs, metricDef{"trace.self." + name + "_s", "s"})
	}
	return defs
}()

const blockCacheBytes = 8 << 20 // the store's default block cache

// snap is the store and runtime state at one instant; deltas between two
// snaps give a phase's counters.
type snap struct {
	at                   time.Time
	cpu                  time.Duration
	hostSteal, hostTotal int64
	m                    fcae.Metrics
	ds                   fcae.DispatchStats
	mem                  runtime.MemStats
}

func takeSnap(db *fcae.DB) snap {
	s := snap{at: time.Now(), cpu: cpuTime(), m: db.Metrics(), ds: db.DispatchStats()}
	s.hostSteal, s.hostTotal = hostCPU()
	runtime.ReadMemStats(&s.mem)
	return s
}

func (s snap) counter(name string) int64 { return s.m.Counters[name] }

func delta(a, b snap, name string) int64 { return b.counter(name) - a.counter(name) }

// histDelta returns the count and sum of a histogram's observations
// between two snaps.
func histDelta(a, b snap, name string) (int64, int64) {
	ha, hb := a.m.Histograms[name], b.m.Histograms[name]
	return hb.Count - ha.Count, hb.Sum - ha.Sum
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

const mb = 1 << 20

// fillLayers derives the per-layer metrics every workload shares from
// the timed phase's listener totals and snapshot deltas, and the span
// self times when traced. ops is the number of operations timed.
func fillLayers(r *result, l *listener, a, b snap, ops int64, tr *tracer) {
	L := r.layers
	wall := b.at.Sub(a.at).Seconds()
	l.mu.Lock()
	var stall time.Duration
	for _, d := range l.stallBy {
		stall += d
	}
	L["lsm.stall.count"] = float64(l.stallCount)
	L["lsm.stall.l0_slowdown_s"] = l.stallBy[fcae.StallL0Slowdown].Seconds()
	L["lsm.stall.memtable_full_s"] = l.stallBy[fcae.StallMemTableFull].Seconds()
	L["lsm.stall.l0_stop_s"] = l.stallBy[fcae.StallL0Stop].Seconds()
	L["lsm.stall.wall_frac"] = ratio(stall.Seconds(), wall)
	L["lsm.flush.count"] = float64(l.flushCount)
	L["lsm.flush.busy_s"] = l.flushBusy.Seconds()
	L["lsm.flush.mb_s"] = ratio(float64(l.flushBytes)/mb, l.flushBusy.Seconds())
	L["compaction.count"] = float64(l.compactions)
	L["compaction.trivial_frac"] = ratio(float64(l.trivial), float64(l.compactions))
	L["compaction.busy_s"] = l.compBusy.Seconds()
	L["compaction.busy_frac"] = ratio(l.compBusy.Seconds(), wall)
	L["compaction.read_mb"] = float64(l.compRead) / mb
	L["compaction.write_mb"] = float64(l.compWrite) / mb
	L["compaction.mb_s"] = ratio(float64(l.compRead+l.compWrite)/mb, l.compBusy.Seconds())
	L["core.mb_s"] = ratio(float64(l.deviceRead)/mb, l.deviceKernel.Seconds())
	L["core.modeled_kernel_s"] = l.deviceKernel.Seconds()
	L["core.modeled_pcie_s"] = l.deviceTransfer.Seconds()
	l.mu.Unlock()

	L["compaction.pipeline.prefetch_stall_s"] = float64(delta(a, b, "compaction_pipeline_prefetch_stall_nanos")) / 1e9
	L["compaction.pipeline.encode_stall_s"] = float64(delta(a, b, "compaction_pipeline_encode_stall_nanos")) / 1e9
	L["compaction.pipeline.submit_stall_s"] = float64(delta(a, b, "compaction_pipeline_submit_stall_nanos")) / 1e9

	dev := b.ds.DeviceJobs - a.ds.DeviceJobs
	cpu := b.ds.CPUJobs - a.ds.CPUJobs
	L["dispatch.device_frac"] = ratio(float64(dev), float64(dev+cpu))
	L["dispatch.cpu_jobs"] = float64(cpu)
	L["dispatch.fallback_fanin"] = float64(b.ds.FallbackFanIn - a.ds.FallbackFanIn)
	L["dispatch.fallback_arena"] = float64(b.ds.FallbackArena - a.ds.FallbackArena)
	L["dispatch.fallback_budget"] = float64(b.ds.FallbackBudget - a.ds.FallbackBudget)
	L["dispatch.fallback_saturated"] = float64(b.ds.FallbackSaturated - a.ds.FallbackSaturated)
	var high int64
	for _, h := range b.ds.ArenaHighWater {
		high = max(high, h)
	}
	L["dispatch.arena_high_water_mb"] = float64(high) / mb

	var tables float64
	for name, v := range b.m.Gauges {
		if strings.HasPrefix(name, "level") && strings.HasSuffix(name, "_files") {
			tables += v
		}
	}
	L["lsm.tables"] = tables
	// The cache hit ratios are lifetime values: the store exposes no
	// windowed counters for them.
	L["cache.block.hit_ratio"] = b.m.Gauges["block_cache_hit_ratio"]
	L["cache.block.fill_frac"] = b.m.Gauges["block_cache_bytes"] / blockCacheBytes
	L["lsm.tablecache.hit_ratio"] = b.m.Gauges["table_cache_hit_ratio"]
	L["lsm.seek_compactions"] = float64(delta(a, b, "compaction_seek"))
	L["lsm.commit.group_ratio"] = ratio(float64(delta(a, b, "grouped_writes")), float64(delta(a, b, "group_commits")))

	r.detail["host_steal_frac"] = ratio(float64(b.hostSteal-a.hostSteal), float64(b.hostTotal-a.hostTotal))
	L["go.cpu_us_per_op"] = ratio(float64((b.cpu - a.cpu).Microseconds()), float64(ops))
	L["go.alloc_mb_per_op"] = ratio(float64(b.mem.TotalAlloc-a.mem.TotalAlloc)/mb, float64(ops))
	L["go.gc_count"] = float64(b.mem.NumGC - a.mem.NumGC)
	L["go.gc_pause_s"] = float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs) / 1e9

	if tr == nil {
		return
	}
	spans := tr.all()
	L["trace.spans"] = float64(len(spans))
	self := selfTimes(spans)
	for _, name := range spanLayers {
		L["trace.self."+name+"_s"] = self[name].Seconds()
	}
	for _, p := range []string{"open_runs", "merge", "flush_table", "manifest_apply"} {
		L["compaction."+p+"_s"] = self["compaction."+p].Seconds()
	}
	iterStats(L, spans)
}

// iterStats derives the iterator call latencies from the traced scans.
func iterStats(L map[string]float64, spans []span) {
	var newL, seekL, nextL, closeL latencies
	for _, s := range spans {
		d := time.Duration(s.End - s.Start)
		switch s.Name {
		case "lsm.iter.new":
			newL.add(d)
		case "lsm.iter.seek":
			seekL.add(d)
		case "lsm.iter.next":
			nextL.add(d)
		case "lsm.iter.close":
			closeL.add(d)
		}
	}
	L["lsm.iter.new_us_p50"] = newL.quantile(0.5).US
	L["lsm.iter.seek_us_p50"] = seekL.quantile(0.5).US
	L["lsm.iter.next_us_mean"] = nextL.meanUS()
	L["lsm.iter.close_us_p50"] = closeL.quantile(0.5).US
}

// sampler polls, until finished, the Go runtime's memory in use (mapped
// minus released to the OS) every 10 ms, keeping the peak, and the
// store's table bytes every 100 ms, keeping the mean: a time average is
// steadier than one end-of-run reading, which lands before or after a
// flush or compaction by chance.
type sampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	// Written by the polling goroutine, read after it has exited.
	peakMB, tableBytes float64
}

func startSampler(db *fcae.DB) *sampler {
	s := &sampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		samples := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
		var peak uint64
		var tableSum float64
		var tableN int
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for tick := 0; ; tick++ {
			metrics.Read(samples)
			peak = max(peak, samples[0].Value.Uint64()-samples[1].Value.Uint64())
			if tick%10 == 0 {
				var sum uint64
				for _, b := range db.LevelBytes() {
					sum += b
				}
				tableSum += float64(sum)
				tableN++
			}
			select {
			case <-s.stop:
				s.peakMB, s.tableBytes = float64(peak)/mb, tableSum/float64(tableN)
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops sampling and returns the memory peak in MiB and the mean
// table bytes.
//
//fcae:chan-owner main.sampler.stop
func (s *sampler) finish() (memPeakMB, tableBytes float64) {
	close(s.stop)
	s.wg.Wait()
	return s.peakMB, s.tableBytes
}

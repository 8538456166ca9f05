package compaction

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"testing"

	"fcae/internal/keys"
	"fcae/internal/sstable"
)

// benchJob builds the Table V-style 2-run workload: two sorted runs of
// interleaved keys with ~100 B values, snappy-compressed 4 KiB blocks,
// ~2 MB output tables.
func benchJob(tb testing.TB, entriesPerRun int) *Job {
	tb.Helper()
	opts := sstable.Options{Compression: sstable.SnappyCompression}
	job := &Job{
		SmallestSnapshot: keys.MaxSeq,
		BottomLevel:      true,
		TableOpts:        opts,
		MaxOutputBytes:   2 << 20,
	}
	val := make([]byte, 100)
	for i := range val {
		val[i] = byte(i * 31)
	}
	for r := 0; r < 2; r++ {
		var buf bytes.Buffer
		w := sstable.NewWriter(&buf, opts)
		for i := 0; i < entriesPerRun; i++ {
			ik := keys.MakeInternal(nil, []byte(fmt.Sprintf("key%09d", i*2+r)), uint64(r*1000000+i), keys.KindSet)
			if err := w.Add(ik, val); err != nil {
				tb.Fatal(err)
			}
		}
		if _, err := w.Finish(); err != nil {
			tb.Fatal(err)
		}
		data := append([]byte(nil), buf.Bytes()...)
		job.Runs = append(job.Runs, []Table{{
			Num:  uint64(r + 1),
			Size: int64(len(data)),
			Data: memReaderAt(data),
		}})
	}
	return job
}

type nullFile struct{}

func (nullFile) Write(p []byte) (int, error) { return len(p), nil }
func (nullFile) Close() error                { return nil }

// nullEnv discards output bytes so the benchmark measures the data path,
// not allocator churn in a growing buffer.
type nullEnv struct{ next uint64 }

func (e *nullEnv) NewOutput() (uint64, io.WriteCloser, error) {
	e.next++
	return e.next, nullFile{}, nil
}

// BenchmarkCompactPipeline compares the sequential oracle with the
// pipelined CPU executor on the 2-run workload. The acceptance bar is
// >= 1.3x pipelined throughput at 4+ cores.
func BenchmarkCompactPipeline(b *testing.B) {
	job := benchJob(b, 40000)
	bytesIn := job.InputBytes()
	run := func(b *testing.B, compact func(*Job, Env) (*Result, error)) {
		b.SetBytes(bytesIn)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := compact(job, &nullEnv{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("sequential", func(b *testing.B) { run(b, compactSequential) })
	b.Run("pipelined", func(b *testing.B) { run(b, CPU{}.Compact) })
	for _, enc := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("pipelined-enc%d", enc), func(b *testing.B) {
			run(b, CPU{pipeline: pipelineConfig{encoders: enc}}.Compact)
		})
	}
}

// TestPipelinedCompactAllocsBudget pins the pipelined path's allocs/op on
// the benchmark workload, the dynamic counterpart of hotalloc's static
// check over the encoder and prefetch loops: the pools must actually
// recycle, so allocations stay proportional to tables (a handful each),
// not blocks (hundreds) or entries (tens of thousands).
func TestPipelinedCompactAllocsBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed budget; skipped in -short")
	}
	job := benchJob(t, 20000)
	cpu := CPU{pipeline: pipelineConfig{encoders: 2}}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cpu.Compact(job, &nullEnv{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Measured 373 allocs/op: dominated by per-table reader/iterator and
	// pipeline setup for ~40k entries across ~600 blocks — the pools are
	// recycling. The budget trips if a per-block allocation sneaks into
	// the prefetch, merge or encode loop (that alone would add ~600).
	const budget = 600
	if got := res.AllocsPerOp(); got > budget {
		t.Fatalf("pipelined compaction allocates %d allocs/op, budget is %d", got, budget)
	} else {
		t.Logf("pipelined compaction: %d allocs/op (budget %d, GOMAXPROCS %d)",
			got, budget, runtime.GOMAXPROCS(0))
	}
}

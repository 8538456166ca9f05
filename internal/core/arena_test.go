package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"fcae/internal/compaction"
	"fcae/internal/keys"
	"fcae/internal/sstable"
)

func TestArenaSizing(t *testing.T) {
	empty := NewArena(0)
	if empty.Cap() != 0 || empty.InputBudget() != 0 {
		t.Fatalf("NewArena(0): Cap %d, InputBudget %d, want an empty arena", empty.Cap(), empty.InputBudget())
	}
	if _, ok := empty.takeOut(1); ok {
		t.Fatal("NewArena(0) handed out output memory")
	}
	a := NewArena(8192)
	if got := a.Cap(); got != 8192 {
		t.Fatalf("Cap = %d, want 8192", got)
	}
	// 1/8 index, 1/2 data, remainder output.
	if got := a.InputBudget(); got != 4096-4096/8 {
		t.Fatalf("InputBudget = %d, want %d", got, 4096-4096/8)
	}
	if got := a.InUse(); got != 0 {
		t.Fatalf("fresh arena InUse = %d, want 0", got)
	}
	// The one-job sizing rule leaves room for the input and an output as
	// large as the input.
	const in = 1 << 20
	sized := NewArena(ArenaBytesFor(in))
	if sized.InputBudget() < in || int64(len(sized.out)) < in {
		t.Fatalf("ArenaBytesFor(%d): InputBudget %d, output region %d; both must cover the input",
			in, sized.InputBudget(), len(sized.out))
	}
}

// TestArenaHighWater proves the high-water mark tracks peak occupancy and
// survives Reset: it is the lifetime provisioning figure, not a per-job one.
func TestArenaHighWater(t *testing.T) {
	a := NewArena(8192)
	if got := a.HighWater(); got != 0 {
		t.Fatalf("fresh arena HighWater = %d, want 0", got)
	}
	a.commitStaging(100, 200)
	if got := a.HighWater(); got != 300 {
		t.Fatalf("after commitStaging(100,200): HighWater = %d, want 300", got)
	}
	if _, ok := a.takeOut(50); !ok {
		t.Fatal("takeOut(50) failed on a fresh region")
	}
	if got := a.HighWater(); got != 350 {
		t.Fatalf("after takeOut(50): HighWater = %d, want 350", got)
	}
	a.Reset()
	if got := a.InUse(); got != 0 {
		t.Fatalf("after Reset: InUse = %d, want 0", got)
	}
	if got := a.HighWater(); got != 350 {
		t.Fatalf("Reset must not rewind HighWater: got %d, want 350", got)
	}
	// A smaller next job must not lower the mark; a larger one raises it.
	a.commitStaging(10, 20)
	if got := a.HighWater(); got != 350 {
		t.Fatalf("smaller job lowered HighWater to %d, want 350", got)
	}
	a.commitStaging(400, 500)
	if got := a.HighWater(); got != 930 {
		t.Fatalf("larger job: HighWater = %d, want 930", got)
	}
}

func TestConfigArenaBytes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StagingBytes = 12345
	if got := cfg.ArenaBytes(); got != 12345 {
		t.Fatalf("explicit StagingBytes: ArenaBytes = %d, want 12345", got)
	}
	cfg.StagingBytes = -1
	if err := cfg.Validate(); !errors.Is(err, ErrConfig) {
		t.Fatalf("negative StagingBytes: Validate = %v, want ErrConfig", err)
	}
	cfg.StagingBytes = 0
	want := int64(cfg.N) * DefaultArenaPerLane
	if want > MaxArenaBytes {
		want = MaxArenaBytes
	}
	if got := cfg.ArenaBytes(); got != want {
		t.Fatalf("modeled default: ArenaBytes = %d, want %d", got, want)
	}
}

func TestArenaTakeOutAndReset(t *testing.T) {
	a := NewArena(8192)
	outRegion := int(a.Cap()) - len(a.index) - len(a.data)
	dst, ok := a.takeOut(16)
	if !ok || len(dst) != 16 || cap(dst) != 16 {
		t.Fatalf("takeOut(16) = len %d cap %d ok %v, want a 16-byte slice", len(dst), cap(dst), ok)
	}
	copy(dst, bytes.Repeat([]byte{0xAB}, 16))
	if got := a.InUse(); got != 16 {
		t.Fatalf("InUse = %d after takeOut(16), want 16", got)
	}
	// A second reservation must not alias the first.
	dst2, ok := a.takeOut(16)
	if !ok {
		t.Fatal("second takeOut failed")
	}
	copy(dst2, bytes.Repeat([]byte{0xCD}, 16))
	if dst[0] != 0xAB || dst2[0] != 0xCD {
		t.Fatal("takeOut reservations alias each other")
	}
	if _, ok := a.takeOut(outRegion); ok {
		t.Fatal("takeOut handed out more than the output region holds")
	}
	a.Reset()
	if got := a.InUse(); got != 0 {
		t.Fatalf("InUse = %d after Reset, want 0", got)
	}
	if _, ok := a.takeOut(outRegion); !ok {
		t.Fatal("full output region unavailable after Reset")
	}
}

func TestArenaBuilderExhaustion(t *testing.T) {
	a := NewArena(1024) // 512B data region
	b := NewInputBuilder(64, a)
	b.BeginTable()
	if err := b.AddBlock([]byte("k1"), 0, make([]byte, 1024)); err == nil {
		t.Fatal("AddBlock accepted a block larger than the data region")
	} else if !errors.Is(err, compaction.ErrArenaExhausted) {
		t.Fatalf("AddBlock error = %v, want ErrArenaExhausted", err)
	}
}

// TestStagedImageMatchesSource proves staging is lossless: decoding each
// staged image through DecodeIndex and BlockSlice yields exactly its
// source tables' raw block stream (index key, compression type, payload),
// table by table, and the arena accounts for every staged byte.
func TestStagedImageMatchesSource(t *testing.T) {
	opts := sstable.Options{Compression: sstable.SnappyCompression}
	job := defaultJob(
		[]compaction.Table{
			buildTable(t, opts, genRun("a-", 300, 64, 100)),
			buildTable(t, opts, genRun("b-", 200, 200, 1000)),
		},
		[]compaction.Table{buildTable(t, opts, genRun("c-", 500, 32, 5000))},
	)
	job.TableOpts = opts
	a := NewArena(ArenaBytesFor(job.InputBytes()))
	images, err := StageJob(a, job, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(images) != len(job.Runs) {
		t.Fatalf("staged %d images for %d runs", len(images), len(job.Runs))
	}
	var staged int64
	for i, run := range job.Runs {
		img := images[i]
		staged += int64(len(img.IndexMem) + len(img.DataMem))
		if len(img.Tables) != len(run) {
			t.Fatalf("image %d holds %d tables, run has %d", i, len(img.Tables), len(run))
		}
		for ti, tbl := range run {
			r, err := sstable.NewReader(tbl.Data, tbl.Size, opts, nil, tbl.Num)
			if err != nil {
				t.Fatal(err)
			}
			var want []sstable.RawBlock
			err = r.VisitRawBlocks(func(rb sstable.RawBlock) error {
				want = append(want, sstable.RawBlock{
					IndexKey: bytes.Clone(rb.IndexKey),
					CType:    rb.CType,
					Payload:  bytes.Clone(rb.Payload),
				})
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			entries, err := img.DecodeIndex(ti)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != len(want) || len(want) == 0 {
				t.Fatalf("image %d table %d: %d index entries, source has %d blocks", i, ti, len(entries), len(want))
			}
			for bi, e := range entries {
				raw, err := img.BlockSlice(e)
				if err != nil {
					t.Fatal(err)
				}
				w := want[bi]
				if !bytes.Equal(e.LastKey, w.IndexKey) || raw[0] != w.CType || !bytes.Equal(raw[1:], w.Payload) {
					t.Fatalf("image %d table %d block %d differs from the source block", i, ti, bi)
				}
			}
		}
	}
	if a.InUse() != staged {
		t.Fatalf("arena InUse = %d, want staged %d", a.InUse(), staged)
	}
}

// TestExecutorMatchesCPUAcrossJobs runs three jobs on one executor, so
// every job after the first reuses the rewound arena, and checks each
// job's outputs against the CPU compaction of the same job.
func TestExecutorMatchesCPUAcrossJobs(t *testing.T) {
	x, err := NewExecutor(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		seqBase := uint64(100 * (round + 1))
		opts := defaultJob().TableOpts
		job := defaultJob(
			[]compaction.Table{buildTable(t, opts, genRun("key-a", 400, 64, seqBase))},
			[]compaction.Table{buildTable(t, opts, genRun("key-b", 300, 64, seqBase+1000))},
		)
		fEnv, cEnv := newMemEnv(), newMemEnv()
		fRes, err := x.Compact(job, fEnv)
		if err != nil {
			t.Fatalf("round %d engine compact: %v", round, err)
		}
		cRes, err := compaction.CPU{}.Compact(job, cEnv)
		if err != nil {
			t.Fatalf("round %d cpu compact: %v", round, err)
		}
		f, c := scanOutputs(t, fEnv, fRes), scanOutputs(t, cEnv, cRes)
		if len(f) != len(c) || len(f) == 0 {
			t.Fatalf("round %d: engine %d entries, cpu %d", round, len(f), len(c))
		}
		for i := range f {
			if f[i] != c[i] {
				t.Fatalf("round %d entry %d differs: engine=%+v cpu=%+v", round, i, f[i], c[i])
			}
		}
	}
	if hw, cap := x.ArenaHighWater(), x.ArenaBytes(); hw <= 0 || hw > cap {
		t.Fatalf("ArenaHighWater = %d after three jobs, want in (0, %d]", hw, cap)
	}
}

// TestEngineOutputArenaExhausted proves a full retained-output region
// fails the run with the sentinel the dispatcher routes to software,
// rather than spilling the output to the heap.
func TestEngineOutputArenaExhausted(t *testing.T) {
	opts := sstable.Options{Compression: sstable.SnappyCompression}
	job := defaultJob([]compaction.Table{buildTable(t, opts, genRun("key-", 500, 64, 100))})
	job.TableOpts = opts
	images, _ := stageJob(t, job, 64)
	eng, _ := NewEngine(DefaultConfig())
	_, err := eng.Run(images, Params{Compress: true, SmallestSnapshot: keys.MaxSeq, Arena: NewArena(256)})
	if !errors.Is(err, compaction.ErrArenaExhausted) {
		t.Fatalf("Run with a 96-byte output region = %v, want ErrArenaExhausted", err)
	}
}

// TestExecutorOutputArenaExhausted sizes a channel so the job's inputs
// stage but its output does not fit: Compact must fail with
// ErrArenaExhausted before creating any output file, which is what lets
// the dispatcher rerun the job on the CPU lane.
func TestExecutorOutputArenaExhausted(t *testing.T) {
	opts := defaultJob().TableOpts
	job := defaultJob(
		[]compaction.Table{buildTable(t, opts, genRun("key-a", 400, 64, 100))},
		[]compaction.Table{buildTable(t, opts, genRun("key-b", 300, 64, 1000))},
	)
	images, _ := stageJob(t, job, DefaultConfig().WIn)
	var data int64
	for _, img := range images {
		data += int64(len(img.DataMem))
	}
	cfg := DefaultConfig()
	// The data region (half the arena) holds the inputs with room to
	// spare; the output region (3/8) is then smaller than the output.
	cfg.StagingBytes = 2 * (data + 4096)
	x, err := NewExecutor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	env := newMemEnv()
	_, err = x.Compact(job, env)
	if !errors.Is(err, compaction.ErrArenaExhausted) || !strings.Contains(err.Error(), "retained-output") {
		t.Fatalf("Compact = %v, want ErrArenaExhausted from the retained-output region", err)
	}
	if len(env.files) != 0 {
		t.Fatalf("Compact created %d output files before failing", len(env.files))
	}
}

// TestExecutorArenaExhausted proves a job too large for a deliberately
// tiny arena surfaces the sentinel the dispatcher routes on.
func TestExecutorArenaExhausted(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StagingBytes = 2048 // 1KiB data region; the run below cannot fit
	x, err := NewExecutor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := sstable.Options{Compression: sstable.SnappyCompression}
	job := defaultJob([]compaction.Table{buildTable(t, opts, genRun("key-", 500, 64, 100))})
	if _, err := x.Compact(job, newMemEnv()); !errors.Is(err, compaction.ErrArenaExhausted) {
		t.Fatalf("Compact = %v, want ErrArenaExhausted", err)
	}
}

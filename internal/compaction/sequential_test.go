package compaction

import (
	"fmt"

	"fcae/internal/iter"
	"fcae/internal/keys"
	"fcae/internal/sstable"
)

// This file holds the single-goroutine sequential data path. It is the
// byte-identity oracle for the pipelined CPU executor: the same job run
// through both must produce the same output files.

// compactSequential merges job with no concurrency; the pipelined path
// must produce byte-identical outputs.
func compactSequential(job *Job, env Env) (*Result, error) {
	its := make([]iter.Iterator, 0, len(job.Runs))
	for _, run := range job.Runs {
		it, err := openRun(run, job.TableOpts)
		if err != nil {
			return nil, err
		}
		its = append(its, it)
	}
	merged := iter.NewMerging(its...)
	merged.SeekToFirst()

	res := &Result{}
	res.Stats.BytesRead = job.InputBytes()
	drop := dropPolicy{smallestSnapshot: job.SmallestSnapshot, bottomLevel: job.BottomLevel}

	var out *outputWriter
	defer func() {
		if out != nil {
			out.abort()
		}
	}()

	var lastUser []byte
	for ; merged.Valid(); merged.Next() {
		res.Stats.PairsIn++
		ikey := merged.Key()
		if drop.drop(ikey) {
			res.Stats.PairsDropped++
			continue
		}
		// Close a full output only at a user-key boundary so that no user
		// key ever spans two tables in one level (that would break the
		// one-file-per-level lookup invariant).
		if out != nil && uint64(out.w.EstimatedSize()) >= job.MaxOutputBytes &&
			keys.CompareUser(keys.UserKey(ikey), lastUser) != 0 {
			done := job.Trace.StartSpan("flush_table")
			ot, err := out.finish()
			done()
			if err != nil {
				return nil, err
			}
			res.Outputs = append(res.Outputs, ot)
			res.Stats.BytesWritten += ot.Size
			out = nil
		}
		if out == nil {
			var err error
			if out, err = newOutput(env, job.TableOpts); err != nil {
				return nil, err
			}
		}
		if err := out.add(ikey, merged.Value()); err != nil {
			return nil, err
		}
		lastUser = append(lastUser[:0], keys.UserKey(ikey)...)
		res.Stats.PairsOut++
	}
	if err := merged.Error(); err != nil {
		return nil, err
	}
	if out != nil {
		done := job.Trace.StartSpan("flush_table")
		ot, err := out.finish()
		done()
		if err != nil {
			return nil, err
		}
		if ot.Entries > 0 {
			res.Outputs = append(res.Outputs, ot)
			res.Stats.BytesWritten += ot.Size
		}
		out = nil
	}
	return res, nil
}

func newOutput(env Env, opts sstable.Options) (*outputWriter, error) {
	num, f, err := env.NewOutput()
	if err != nil {
		return nil, err
	}
	return &outputWriter{num: num, f: f, w: sstable.NewWriter(f, opts)}, nil
}

func (o *outputWriter) finish() (OutputTable, error) {
	stats, err := o.w.Finish()
	if err != nil {
		_ = o.f.Close()
		return OutputTable{}, err
	}
	if err := o.f.Close(); err != nil {
		return OutputTable{}, err
	}
	return OutputTable{
		Num:      o.num,
		Size:     stats.FileSize,
		Entries:  stats.Entries,
		Smallest: stats.Smallest,
		Largest:  stats.Largest,
	}, nil
}

// openRun builds one iterator over a run's tables, concatenated in order.
func openRun(run []Table, opts sstable.Options) (iter.Iterator, error) {
	readers := make([]*sstable.Reader, len(run))
	for i, t := range run {
		r, err := sstable.NewReader(t.Data, t.Size, opts, nil, t.Num)
		if err != nil {
			return nil, fmt.Errorf("compaction: open table %d: %w", t.Num, err)
		}
		readers[i] = r
	}
	return newConcatIter(readers), nil
}

// concatIter chains table iterators whose key ranges are disjoint and
// ascending.
type concatIter struct {
	readers []*sstable.Reader
	idx     int
	cur     *sstable.Iterator
	err     error
}

func newConcatIter(readers []*sstable.Reader) *concatIter {
	return &concatIter{readers: readers, idx: -1}
}

func (c *concatIter) open(i int) {
	c.idx = i
	if i >= 0 && i < len(c.readers) {
		c.cur = c.readers[i].NewIterator()
	} else {
		c.cur = nil
	}
}

func (c *concatIter) Valid() bool { return c.err == nil && c.cur != nil && c.cur.Valid() }

func (c *concatIter) SeekToFirst() {
	c.open(0)
	if c.cur != nil {
		c.cur.SeekToFirst()
		c.skipEmpty()
	}
}

func (c *concatIter) SeekGE(target []byte) {
	// Linear probe is fine: runs have few tables and compaction scans.
	for i := range c.readers {
		c.open(i)
		c.cur.SeekGE(target)
		if c.cur.Valid() {
			return
		}
		if err := c.cur.Error(); err != nil {
			c.err = err
			return
		}
	}
	c.cur = nil
}

func (c *concatIter) SeekToLast() {
	c.open(len(c.readers) - 1)
	if c.cur != nil {
		c.cur.SeekToLast()
		c.skipEmptyBackward()
	}
}

func (c *concatIter) Next() {
	if c.cur == nil {
		return
	}
	c.cur.Next()
	c.skipEmpty()
}

func (c *concatIter) Prev() {
	if c.cur == nil {
		return
	}
	c.cur.Prev()
	c.skipEmptyBackward()
}

func (c *concatIter) skipEmptyBackward() {
	for c.err == nil && c.cur != nil && !c.cur.Valid() {
		if err := c.cur.Error(); err != nil {
			c.err = err
			return
		}
		if c.idx-1 < 0 {
			c.cur = nil
			return
		}
		c.open(c.idx - 1)
		c.cur.SeekToLast()
	}
}

func (c *concatIter) skipEmpty() {
	for c.err == nil && c.cur != nil && !c.cur.Valid() {
		if err := c.cur.Error(); err != nil {
			c.err = err
			return
		}
		if c.idx+1 >= len(c.readers) {
			c.cur = nil
			return
		}
		c.open(c.idx + 1)
		c.cur.SeekToFirst()
	}
}

func (c *concatIter) Key() []byte   { return c.cur.Key() }
func (c *concatIter) Value() []byte { return c.cur.Value() }
func (c *concatIter) Error() error {
	if c.err != nil {
		return c.err
	}
	if c.cur != nil {
		return c.cur.Error()
	}
	return nil
}

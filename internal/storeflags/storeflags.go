// Package storeflags binds the store-configuration flags shared by
// cmd/dbbench, cmd/ycsb and cmd/fcaeserver and turns them into one
// lsm.Options, so every binary configures compaction the same way.
package storeflags

import (
	"flag"
	"fmt"
	"slices"

	"fcae/internal/compaction"
	"fcae/internal/core"
	"fcae/internal/dispatch"
	"fcae/internal/lsm"
)

// names lists the flags Bind registers.
var names = []string{"backend", "workers", "device-channels", "fault-rate", "fault-seed", "priority-lanes"}

// Flags holds the parsed store flags.
type Flags struct {
	// Backend is "cpu" (software merges only) or "fcae" (engine device
	// channels, software fallback).
	Backend string
	// Workers is the shared flush/compaction worker-pool size.
	Workers int
	// Channels is the number of engine instances behind the scheduler.
	Channels int
	// FaultRate is the per-attempt device fault probability.
	FaultRate float64
	// FaultSeed seeds the fault injector.
	FaultSeed int64
	// PriorityLanes dispatches L0 jobs ahead of deep-level jobs.
	PriorityLanes bool

	fs *flag.FlagSet
}

// Bind registers the store flags on fs. Read the result after fs.Parse.
func Bind(fs *flag.FlagSet) *Flags {
	f := &Flags{fs: fs}
	fs.StringVar(&f.Backend, "backend", "cpu", "compaction backend: cpu or fcae")
	fs.IntVar(&f.Workers, "workers", 2, "shared flush/compaction worker pool size (one slot stays free for flushes)")
	fs.IntVar(&f.Channels, "device-channels", 1, "device channels (engine instances) behind the scheduler; backend=fcae only")
	fs.Float64Var(&f.FaultRate, "fault-rate", 0, "device fault injection probability [0,1]; backend=fcae only")
	fs.Int64Var(&f.FaultSeed, "fault-seed", 1, "fault injector RNG seed")
	fs.BoolVar(&f.PriorityLanes, "priority-lanes", true, "dispatch L0 jobs ahead of deep-level jobs (false = single FIFO)")
	return f
}

// Options validates the parsed flags and builds the store options they
// describe. A value the backend cannot honor is an error, never silently
// ignored.
func (f *Flags) Options() (lsm.Options, error) {
	var o lsm.Options
	if f.Workers < 1 {
		return o, fmt.Errorf("-workers must be >= 1, got %d", f.Workers)
	}
	if f.Channels < 1 {
		return o, fmt.Errorf("-device-channels must be >= 1, got %d", f.Channels)
	}
	if f.FaultRate < 0 || f.FaultRate > 1 {
		return o, fmt.Errorf("-fault-rate must be in [0,1], got %g", f.FaultRate)
	}
	o.DispatchConfig.Workers = f.Workers
	o.DispatchConfig.Tuning.DisablePriorityLanes = !f.PriorityLanes
	switch f.Backend {
	case "cpu":
		if f.FaultRate > 0 {
			return o, fmt.Errorf("-fault-rate requires -backend fcae (no device to fault)")
		}
	case "fcae":
		devs := make([]compaction.Executor, f.Channels)
		for i := range devs {
			exec, err := core.NewExecutor(core.MultiInputConfig())
			if err != nil {
				return o, err
			}
			devs[i] = exec
		}
		o.DispatchConfig.Devices = devs
		if f.FaultRate > 0 {
			o.DispatchConfig.FaultInjector = dispatch.NewProbInjector(f.FaultSeed, f.FaultRate)
		}
	default:
		return o, fmt.Errorf("unknown -backend %q (want cpu or fcae)", f.Backend)
	}
	return o, nil
}

// Explicit returns the store flags set on the command line, as "-name",
// sorted by name. A binary that drives a remote store rejects
// them: they configure the serving process.
func (f *Flags) Explicit() []string {
	var set []string
	f.fs.Visit(func(fl *flag.Flag) {
		if slices.Contains(names, fl.Name) {
			set = append(set, "-"+fl.Name)
		}
	})
	return set
}

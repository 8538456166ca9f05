package storeflags

import (
	"flag"
	"io"
	"slices"
	"strings"
	"testing"
)

func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.Int("records", 0, "a binary's own flag")
	f := Bind(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestOptions(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name     string
		args     []string
		wantErr  string // empty means valid
		devices  int
		workers  int
		injector bool
		fifo     bool
	}{
		{name: "defaults", workers: 2},
		{name: "workers reach the pool", args: []string{"-workers", "3"}, workers: 3},
		{name: "single FIFO", args: []string{"-priority-lanes=false"}, workers: 2, fifo: true},
		{name: "fcae channels", args: []string{"-backend", "fcae", "-device-channels", "2"}, devices: 2, workers: 2},
		{name: "fcae faults", args: []string{"-backend", "fcae", "-fault-rate", "0.2"}, devices: 1, workers: 2, injector: true},

		{name: "unknown backend", args: []string{"-backend", "gpu"}, wantErr: `unknown -backend "gpu"`},
		{name: "backend is case-sensitive", args: []string{"-backend", "FCAE"}, wantErr: `unknown -backend "FCAE"`},
		{name: "fault rate without device", args: []string{"-fault-rate", "0.1"}, wantErr: "-fault-rate requires -backend fcae"},
		{name: "zero channels", args: []string{"-backend", "fcae", "-device-channels", "0"}, wantErr: "-device-channels must be >= 1"},
		{name: "zero channels on cpu", args: []string{"-device-channels", "0"}, wantErr: "-device-channels must be >= 1"},
		{name: "zero workers", args: []string{"-workers", "0"}, wantErr: "-workers must be >= 1"},
		{name: "fault rate above one", args: []string{"-backend", "fcae", "-fault-rate", "1.5"}, wantErr: "-fault-rate must be in [0,1]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			o, err := parse(t, tc.args...).Options()
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Options() error = %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := o.Validate(); err != nil {
				t.Fatalf("built options do not validate: %v", err)
			}
			dc := o.DispatchConfig
			if len(dc.Devices) != tc.devices || dc.Workers != tc.workers ||
				(dc.FaultInjector != nil) != tc.injector || dc.Tuning.DisablePriorityLanes != tc.fifo {
				t.Fatalf("DispatchConfig = {devices %d, workers %d, injector %v, fifo %v}, want {%d, %d, %v, %v}",
					len(dc.Devices), dc.Workers, dc.FaultInjector != nil, dc.Tuning.DisablePriorityLanes,
					tc.devices, tc.workers, tc.injector, tc.fifo)
			}
		})
	}
}

func TestExplicit(t *testing.T) {
	t.Parallel()
	if got := parse(t, "-records", "5").Explicit(); len(got) != 0 {
		t.Fatalf("Explicit() = %v with no store flags set", got)
	}
	got := parse(t, "-workers", "2", "-records", "5", "-backend", "cpu").Explicit()
	if want := []string{"-backend", "-workers"}; !slices.Equal(got, want) {
		t.Fatalf("Explicit() = %v, want %v", got, want)
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	Bind(fs)
	for _, n := range names {
		if fs.Lookup(n) == nil {
			t.Errorf("flag -%s is not registered", n)
		}
	}
	registered := 0
	fs.VisitAll(func(*flag.Flag) { registered++ })
	if registered != len(names) {
		t.Errorf("Bind registers %d flags, names lists %d", registered, len(names))
	}
}

package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// preciseSleep blocks the calling thread in nanosleep. time.Sleep parks
// the goroutine on the runtime's timer, which wakes an idle process with
// millisecond resolution; the open-loop generator needs the schedule kept
// to tens of microseconds.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// cpuTime returns the CPU time the process has used, user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostCPU returns the machine's CPU time stolen by the hypervisor and its
// total CPU time, in clock ticks from the first line of /proc/stat (user,
// nice, system, idle, iowait, irq, softirq, steal), or zeros if it cannot
// be read. A run whose timed phase lost much time to steal measured a
// slower machine.
func hostCPU() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// latencies collects one duration per operation. Failed operations are
// recorded as +Inf so that they miss every percentile limit.
type latencies struct {
	ns     []int64
	sorted bool
}

const failedLatency = math.MaxInt64

// failedUS is a percentile that falls on a failed operation: larger than
// any limit, and still a number JSON can carry.
const failedUS = math.MaxFloat64

func (l *latencies) add(d time.Duration) {
	l.ns = append(l.ns, int64(d))
	l.sorted = false
}

func (l *latencies) addFailed() {
	l.ns = append(l.ns, failedLatency)
	l.sorted = false
}

func (l *latencies) merge(o *latencies) {
	l.ns = append(l.ns, o.ns...)
	l.sorted = false
}

// pctl is a percentile with the sample count it was taken from.
type pctl struct {
	US float64 `json:"us"`
	N  int     `json:"n"`
}

// quantile returns the nearest-rank q-quantile in microseconds.
func (l *latencies) quantile(q float64) pctl {
	n := len(l.ns)
	if n == 0 {
		return pctl{}
	}
	if !l.sorted {
		sort.Slice(l.ns, func(i, j int) bool { return l.ns[i] < l.ns[j] })
		l.sorted = true
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	v := l.ns[idx]
	if v == failedLatency {
		return pctl{US: failedUS, N: n}
	}
	return pctl{US: float64(v) / 1e3, N: n}
}

// profile returns the percentiles the result detail reports for l.
func (l *latencies) profile() map[string]pctl {
	return map[string]pctl{"p50": l.quantile(0.5), "p90": l.quantile(0.9), "p99": l.quantile(0.99), "p999": l.quantile(0.999), "p9999": l.quantile(0.9999)}
}

func (l *latencies) meanUS() float64 {
	var sum float64
	var n int
	for _, v := range l.ns {
		if v != failedLatency {
			sum += float64(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n) / 1e3
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// writeAmp is the bytes flushes and compactions wrote to tables per byte
// of writes the store accepted (its write_bytes counter) between two
// snaps.
func writeAmp(a, b snap) float64 {
	return ratio(float64(delta(a, b, "flush_bytes")+delta(a, b, "compaction_write_bytes")), float64(delta(a, b, "write_bytes")))
}

// spaceAmp is bytes held in table files per logical byte of live data.
func spaceAmp(tableBytes float64, liveKeys, keySize, valueSize int) float64 {
	return ratio(tableBytes, float64(liveKeys*(keySize+valueSize)))
}

// zipfian draws ranks with YCSB's zipfian distribution (theta 0.99) and
// scrambles them over [0, n) so that hot keys are not adjacent.
type zipfian struct {
	n                 uint64
	theta, alpha, eta float64
	zetan             float64
	rng               *rand.Rand
}

func newZipfian(n uint64, rng *rand.Rand) *zipfian {
	const theta = 0.99
	z := &zipfian{n: n, theta: theta, rng: rng, alpha: 1 / (1 - theta)}
	z.zetan = zeta(n, theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2, theta)/z.zetan)
	return z
}

func zeta(n uint64, theta float64) float64 {
	var sum float64
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

func (z *zipfian) next() uint64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	var rank uint64
	switch {
	case uz < 1:
		rank = 0
	case uz < 1+math.Pow(0.5, z.theta):
		rank = 1
	default:
		rank = uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	}
	if rank >= z.n {
		rank = z.n - 1
	}
	// FNV-1a over the rank's bytes, as YCSB's ScrambledZipfian does.
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= (rank >> (8 * i)) & 0xff
		h *= 1099511628211
	}
	return h % z.n
}

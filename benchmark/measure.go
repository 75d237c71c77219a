package main

import (
	"bufio"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time. Unlike wall time it
// excludes time the host steals from the guest.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSamples reads runtime/metrics values by name.
type runtimeSamples []metrics.Sample

func newRuntimeSamples(names ...string) runtimeSamples {
	s := make(runtimeSamples, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	return s
}

// read refreshes the samples and returns their values as float64s.
func (s runtimeSamples) read(out []float64) {
	metrics.Read(s)
	for i, x := range s {
		switch x.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(x.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = x.Value.Float64()
		}
	}
}

// procIOWchar returns the bytes this process has passed to write calls
// (/proc/self/io wchar), or -1 where the file is unreadable.
func procIOWchar() int64 {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "wchar: "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err == nil {
				return n
			}
		}
	}
	return -1
}

// stealSeconds returns the host's cumulative steal time from /proc/stat,
// or -1 where it is unreadable.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return -1
	}
	return ticks / 100 // USER_HZ
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the p-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// timingSummary is a timing's diagnostic form: the sample count, the
// median, and the highest percentile with at least ten samples beyond it
// (none below forty samples).
type timingSummary struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50"`
	Tail   string  `json:"tail,omitempty"`
	TailAt float64 `json:"tail_value,omitempty"`
}

func summarize(xs []float64) timingSummary {
	t := timingSummary{N: len(xs), P50: median(xs)}
	if len(xs) < 40 {
		return t
	}
	for _, p := range []float64{0.999, 0.99, 0.95, 0.9, 0.75} {
		if float64(len(xs))*(1-p) >= 10 {
			t.Tail = "p" + strconv.FormatFloat(p*100, 'f', -1, 64)
			t.TailAt = quantile(xs, p)
			break
		}
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mib(n float64) float64 { return n / (1 << 20) }

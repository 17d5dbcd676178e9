package main

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"

	"pop/internal/obs"
)

// promSample maps each series of a Prometheus text exposition (labels
// included, as in `pop_lp_solves_total` or `pop_round_seconds_sum`) to its
// value.
type promSample map[string]float64

func parseProm(text []byte) promSample {
	out := promSample{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// registrySample exports an in-process registry the way popserver's
// /metrics does, so both paths share parseProm.
func registrySample(r *obs.Registry) promSample {
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	return parseProm(buf.Bytes())
}

// delta is after − before for one series (absent series read as zero).
func delta(before, after promSample, series string) float64 {
	return after[series] - before[series]
}

// histMeanMs is the mean observation, in milliseconds, that a seconds
// histogram recorded between two samples.
func histMeanMs(before, after promSample, base string) float64 {
	n := delta(before, after, base+"_count")
	if n == 0 {
		return 0
	}
	return 1000 * delta(before, after, base+"_sum") / n
}

// memStats holds the runtime.MemStats lines of /debug/pprof/heap?debug=1.
type memStats struct{ TotalAlloc, NumGC float64 }

func parseMemStats(text []byte) memStats {
	var m memStats
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "# TotalAlloc = "); ok {
			m.TotalAlloc, _ = strconv.ParseFloat(v, 64) // absent or malformed reads as zero
		} else if v, ok := strings.CutPrefix(line, "# NumGC = "); ok {
			m.NumGC, _ = strconv.ParseFloat(v, 64)
		}
	}
	return m
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

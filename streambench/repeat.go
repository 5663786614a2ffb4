package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// repeatMode runs each workload n times as child processes on seeds
// o.seed .. o.seed+n-1 and prints, per metric, the median and the
// quartile spread (Q3-Q1)/median, with quartiles computed like Python's
// statistics.quantiles(values, n=4). These spreads are what the
// metrics' bounds in BENCHMARK.json are checked against.
func repeatMode(o options, n int) error {
	names := strings.Split(o.workload, ",")
	if o.workload == "all" {
		names = names[:0]
		for _, s := range specs {
			names = append(names, s.name)
		}
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	failed := false
	for _, w := range names {
		values := map[string][]float64{}
		units := map[string]string{}
		var order []string
		for i := 0; i < n; i++ {
			seed := o.seed + int64(i)
			cmd := exec.Command(os.Args[0], "--workload", w, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.Itoa(o.seconds), "--trace", trace, "--daemon", o.daemon, "--work", o.work)
			var out bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, os.Stderr
			cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
			err := cmd.Run()
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			// The per-run tables go to stderr; stdout keeps the summary.
			fmt.Fprintln(os.Stderr, strings.Join(lines[:len(lines)-1], "\n"))
			var res result
			if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
				return fmt.Errorf("%s seed %d: %v (no result line: %v)", w, seed, err, jerr)
			}
			if err != nil || !res.Correct || res.Failed > 0 {
				failed = true
				fmt.Printf("%s seed %d: exit %v, correct=%v, failed %d of %d\n", w, seed, err, res.Correct, res.Failed, res.Attempted)
			}
			for name, m := range res.Metrics {
				if _, ok := values[name]; !ok {
					order = append(order, name)
				}
				values[name] = append(values[name], m.Value)
				units[name] = m.Unit
			}
		}
		sort.Strings(order)
		fmt.Printf("%s: %d runs, seeds %d..%d, %d s each\n", w, n, o.seed, o.seed+int64(n)-1, o.seconds)
		fmt.Printf("  %-34s %14s %14s %14s %9s\n", "metric", "median", "q1", "q3", "spread")
		for _, name := range order {
			v := values[name]
			q1, med, q3 := quartiles(v)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			fmt.Printf("  %-34s %14.4f %14.4f %14.4f %8.1f%%  %s\n", name, med, q1, q3, 100*spread, units[name])
		}
	}
	if failed {
		return fmt.Errorf("some runs failed")
	}
	return nil
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method); with fewer than two values all three are
// that value.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 2 {
		if len(s) == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	m, ld := len(s)+1, len(s)
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

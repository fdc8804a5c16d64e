package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// child runs one benchmark run in a fresh process, as a harness
// invoking the command would, and parses its result line.
func child(o options, seed int64, seconds int, trace bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if trace {
		tr = "1"
	}
	cmd := exec.Command(exe, "--root", o.root, "--build-dir", o.buildDir, "--workload", o.workload,
		"--seed", strconv.FormatInt(seed, 10), "--seconds", strconv.Itoa(seconds), "--trace", tr)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", o.workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: bad result line: %w", o.workload, seed, err)
	}
	return &res, nil
}

// runSteady repeats one workload n times with seeds seed..seed+n-1 and
// prints, per metric, the median, the quartiles and (q3−q1)/median —
// the spread BENCHMARK.json's bounds are set from.
func runSteady(o options, n int) int {
	values := map[string][]float64{}
	units := map[string]string{}
	failed := 0
	for i := range n {
		res, err := child(o, o.seed+int64(i), o.seconds, o.trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			return 1
		}
		if !res.Correct {
			failed++
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		fmt.Printf("run %d seed %d correct=%v attempted=%d failed=%d\n", i+1, o.seed+int64(i), res.Correct, res.Attempted, res.Failed)
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	slices.Sort(names)
	fmt.Printf("%s: %d runs, %d incorrect\n", o.workload, n, failed)
	fmt.Printf("%-32s %-6s %12s %12s %12s %8s  runs\n", "metric", "unit", "q1", "median", "q3", "spread")
	for _, name := range names {
		q1, _, q3 := quartiles(values[name])
		med := median(values[name])
		fmt.Printf("%-32s %-6s %12.6g %12.6g %12.6g %7.2f%% ", name, units[name], q1, med, q3, 100*ratio(q3-q1, med))
		for _, v := range values[name] {
			fmt.Printf(" %.4g", v)
		}
		fmt.Println()
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// runSmoke is the self-test: every workload BENCHMARK.json lists, at two
// seeds, in both modes, with one-second runs. Each run must be correct
// with no failed operation, and must print every metric BENCHMARK.json
// names for its mode, with the unit BENCHMARK.json gives.
func runSmoke(o options) int {
	raw, err := os.ReadFile(o.root + "/BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	var spec benchmarkFile
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: BENCHMARK.json:", err)
		return 1
	}
	bad := 0
	for _, m := range append(slices.Clone(spec.EndToEnd), spec.PerLayer...) {
		if !metricName.MatchString(m.Name) {
			fmt.Printf("FAIL metric name %q does not match %s\n", m.Name, metricName)
			bad++
		}
	}
	for _, wl := range spec.Workloads {
		for _, seed := range []int64{1, 2} {
			for _, trace := range []bool{false, true} {
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				wo := o
				wo.workload = wl.Name
				res, err := child(wo, seed, 1, trace)
				if err != nil {
					fmt.Printf("FAIL %s seed %d trace %v: %v\n", wl.Name, seed, trace, err)
					bad++
					continue
				}
				problems := 0
				if !res.Correct || res.Failed != 0 {
					fmt.Printf("FAIL %s seed %d trace %v: correct=%v failed=%d of %d\n", wl.Name, seed, trace, res.Correct, res.Failed, res.Attempted)
					problems++
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						fmt.Printf("FAIL %s seed %d trace %v: metric %s missing or not in %s\n", wl.Name, seed, trace, m.Name, m.Unit)
						problems++
					}
				}
				if problems == 0 {
					fmt.Printf("ok   %s seed %d trace %v: %d metrics, error_rate 0 over %d ops\n", wl.Name, seed, trace, len(want), res.Attempted)
				}
				bad += problems
			}
		}
	}
	if bad > 0 {
		fmt.Printf("smoke: %d problems\n", bad)
		return 1
	}
	fmt.Println("smoke: ok")
	return 0
}

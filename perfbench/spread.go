package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runSpread runs the workload n times on seeds r.seed, r.seed+1, …
// through this same binary (self) and prints, per metric, the median, the
// quartiles and their distance as a share of the median.
func runSpread(self string, n int, workload string, r *run) error {
	trace := 0
	if r.trace {
		trace = 1
	}
	values := make(map[string][]float64)
	units := make(map[string]string)
	for i := 0; i < n; i++ {
		s := r.seed + int64(i)
		cmd := exec.Command(self, "-bin", r.bin, "-work", r.work,
			"--workload", workload, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.FormatFloat(r.seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		var last []byte
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			last = append(last[:0], sc.Bytes()...)
		}
		var res result
		if err := json.Unmarshal(last, &res); err != nil {
			return fmt.Errorf("seed %d: result line: %w", s, err)
		}
		fmt.Printf("seed %d: correct=%v attempted=%d failed=%d\n", s, res.Correct, res.Attempted, res.Failed)
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		fmt.Println(string(last))
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-34s %14s %14s %14s %8s\n", "metric", "q1", "median", "q3", "spread")
	for _, name := range names {
		q1, _, q3 := quartiles(values[name])
		fmt.Printf("%-34s %14.6g %14.6g %14.6g %8.4f  %s\n", name, q1, median(values[name]), q3, spread(values[name]), units[name])
	}
	return nil
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// selfCheckRuns is the size of each of the two sets.
const selfCheckRuns = 3

// selfCheck is the repeatability check: every workload runs as two sets
// of three untraced runs (seeds seed, seed+1, seed+2 in both sets, each
// run its own process), the medians and quartiles of both sets are
// printed as a Markdown table, and the check fails if the two medians
// of any end-to-end metric differ by more than the metric's bound.
func selfCheck(seed int64, seconds float64) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("selfcheck: %w", err)
	}
	fmt.Printf("# Repeatability self-check\n\n")
	fmt.Printf("`-selfcheck -seed %d -seconds %v`: two sets of %d runs per workload, seeds %d..%d in both.\n\n",
		seed, seconds, selfCheckRuns, seed, seed+selfCheckRuns-1)
	fmt.Printf("Host: %d CPUs, %s, %s/%s.\n\n", runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	var disagree []string
	for _, w := range workloads {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
			for i := 0; i < selfCheckRuns; i++ {
				res, err := runChild(self, w.Name, seed+int64(i), seconds)
				if err != nil {
					return fmt.Errorf("selfcheck: %s set %d run %d: %w", w.Name, s+1, i+1, err)
				}
				for name, m := range res.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
		}
		fmt.Printf("## %s\n\n", w.Name)
		fmt.Println("| metric | unit | set 1 q1 / median / q3 | set 2 q1 / median / q3 | medians differ | bound | |")
		fmt.Println("|---|---|---|---|---|---|---|")
		for _, d := range endToEnd {
			a1, a2, a3 := quartiles(sets[0][d.Name])
			b1, b2, b3 := quartiles(sets[1][d.Name])
			diff := math.Abs(b2-a2) / a2
			verdict := "ok"
			if diff > d.Bound {
				verdict = "DISAGREE"
				disagree = append(disagree, w.Name+"/"+d.Name)
			}
			fmt.Printf("| `%s` | %s | %.5g / %.5g / %.5g | %.5g / %.5g / %.5g | %.2f%% | %.0f%% | %s |\n",
				d.Name, d.Unit, a1, a2, a3, b1, b2, b3, diff*100, d.Bound*100, verdict)
		}
		fmt.Println()
	}
	if len(disagree) > 0 {
		return fmt.Errorf("selfcheck: the two sets disagree beyond the bound on %s", strings.Join(disagree, ", "))
	}
	fmt.Println("Every end-to-end metric's two medians agree within its bound.")
	return nil
}

// runChild runs one untraced workload in a child process and parses the
// result line it prints last.
func runChild(self, workload string, seed int64, seconds float64) (*result, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("parse result line: %w", err)
	}
	return &res, nil
}

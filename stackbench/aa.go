package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the A/A mode and the tests
// read.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// aaVerdict is the last line of an A/A run.
type aaVerdict struct {
	Agree     bool     `json:"agree"`
	Pairs     int      `json:"pairs"`
	Disagreed []string `json:"disagreed"`
}

// runAA runs seeds seeds of each workload (or only the named one) twice as
// child processes of this binary, interleaving the two sets and alternating
// which goes first, then prints each set's median and quartiles per
// end-to-end metric and whether the sets agree within BENCHMARK.json's
// bounds: each set's interquartile spread within the bound and the two
// medians within the bound of each other.
func runAA(seeds int, only string, seconds int) int {
	blob, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "stackbench: A/A mode reads BENCHMARK.json from the working directory:", err)
		return 1
	}
	var spec benchmarkFile
	if err := json.Unmarshal(blob, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "stackbench: BENCHMARK.json:", err)
		return 1
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "stackbench:", err)
		return 1
	}
	ws := workloads
	if only != "" {
		w, err := findWorkload(only)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stackbench:", err)
			return 2
		}
		ws = []*workload{w}
	}
	verdict := aaVerdict{Agree: true, Disagreed: []string{}}
	for _, w := range ws {
		var sets [2]map[string][]float64
		for i := range sets {
			sets[i] = map[string][]float64{}
		}
		for s := 1; s <= seeds; s++ {
			order := []int{0, 1}
			if s%2 == 0 {
				order = []int{1, 0}
			}
			for _, set := range order {
				res, err := runChild(exe, w.name, int64(s), seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "stackbench: %s seed %d set %c: %v\n", w.name, s, 'A'+set, err)
					return 1
				}
				if !res.Correct || res.Failed != 0 {
					fmt.Fprintf(os.Stderr, "stackbench: %s seed %d set %c: correct=%v failed=%d\n", w.name, s, 'A'+set, res.Correct, res.Failed)
					verdict.Agree = false
				}
				for name, v := range res.Metrics {
					sets[set][name] = append(sets[set][name], v.Value)
				}
			}
		}
		fmt.Printf("%s (%d seeds per set)\n", w.name, seeds)
		fmt.Printf("  %-16s %12s %12s %12s %7s | %12s %12s %12s %7s | %7s %6s %s\n",
			"metric", "A q1", "A median", "A q3", "spread", "B q1", "B median", "B q3", "spread", "diff", "bound", "agree")
		for _, m := range spec.EndToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			if len(a) == 0 || len(b) == 0 {
				fmt.Printf("  %-16s missing from the results\n", m.Name)
				verdict.Agree = false
				verdict.Disagreed = append(verdict.Disagreed, w.name+"/"+m.Name)
				continue
			}
			ma, mb := median(a), median(b)
			a1, a3 := quartiles(a)
			b1, b3 := quartiles(b)
			sa, sb := spread(a), spread(b)
			diff := math.Abs(mb-ma) / ma
			ok := diff <= m.Bound && sa <= m.Bound && sb <= m.Bound
			verdict.Pairs++
			if !ok {
				verdict.Agree = false
				verdict.Disagreed = append(verdict.Disagreed, w.name+"/"+m.Name)
			}
			fmt.Printf("  %-16s %12.5g %12.5g %12.5g %6.2f%% | %12.5g %12.5g %12.5g %6.2f%% | %6.2f%% %5.0f%% %v\n",
				m.Name, a1, ma, a3, 100*sa, b1, mb, b3, 100*sb, 100*diff, 100*m.Bound, ok)
		}
	}
	line, err := json.Marshal(verdict)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stackbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !verdict.Agree {
		return 1
	}
	return 0
}

// runChild runs one untraced benchmark run in a child process and parses
// its result line. A child that printed a result and then failed (wrong
// outputs or failed operations) still returns it, for the caller to judge.
func runChild(exe, workload string, seed int64, seconds int) (*result, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%v: %s", runErr, strings.TrimSpace(stderr.String()))
		}
		return nil, fmt.Errorf("parse result line %q: %w", last, err)
	}
	return &res, nil
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// resultSet holds the values of every metric by workload, read from the
// captured output of any number of runs.
type resultSet map[string]map[string][]float64

// readResults reads a file of captured perfbench output: each result line
// is attributed to the workload named by the env line before it.
func readResults(path string) (resultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := resultSet{}
	workload := ""
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		var line struct {
			Env     *environment      `json:"env"`
			Metrics map[string]metric `json:"metrics"`
		}
		if json.Unmarshal(sc.Bytes(), &line) != nil {
			continue // build or diagnostic output
		}
		switch {
		case line.Env != nil:
			workload = line.Env.Workload
		case line.Metrics != nil:
			if workload == "" {
				return nil, fmt.Errorf("%s: result before any env line", path)
			}
			if set[workload] == nil {
				set[workload] = map[string][]float64{}
			}
			for name, m := range line.Metrics {
				set[workload][name] = append(set[workload][name], m.Value)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// compareFiles prints, for every metric, one row per workload with each
// side's first quartile, median and third quartile, its run count, and the
// change of the median from A to B.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	var names []string
	known := map[string]bool{}
	for _, s := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		names = append(names, s.name)
		known[s.name] = true
	}
	var workloads []string
	seen := map[string]bool{}
	for _, set := range []resultSet{a, b} {
		for wl, ms := range set {
			if !seen[wl] {
				seen[wl] = true
				workloads = append(workloads, wl)
			}
			for name := range ms {
				if !known[name] {
					known[name] = true
					names = append(names, name)
				}
			}
		}
	}
	sort.Strings(workloads)

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "metric\tworkload\tA q1\tA median\tA q3\tA n\tB q1\tB median\tB q3\tB n\tB/A median\t")
	for _, name := range names {
		for _, wl := range workloads {
			xa, xb := a[wl][name], b[wl][name]
			if len(xa) == 0 && len(xb) == 0 {
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t\n", name, wl, side(xa), side(xb), ratio(xa, xb))
		}
	}
	return tw.Flush()
}

func side(xs []float64) string {
	if len(xs) == 0 {
		return "-\t-\t-\t0"
	}
	q := quartiles(xs)
	return fmt.Sprintf("%.6g\t%.6g\t%.6g\t%d", q[0], median(xs), q[2], len(xs))
}

func ratio(xa, xb []float64) string {
	ma, mb := median(xa), median(xb)
	if len(xa) == 0 || len(xb) == 0 || ma == 0 {
		return "-"
	}
	return fmt.Sprintf("%.4f", mb/ma)
}

// Command benchgate is the hot-path benchmark regression gate: it runs
// the pipeline benchmarks and compares them against the most recent
// entry of the BENCH_hotpath.json trajectory, failing (exit 1) when a
// benchmark regresses past the tolerance or allocates more per op than
// the recorded entry.
//
// The trajectory records medians from a fixed reference box, so the
// tolerance has two jobs: absorbing run-to-run noise on that box
// (-tolerance 0.15 locally) and absorbing hardware differences when the
// gate runs elsewhere (CI passes a wider bound). Allocations are
// machine-independent and always gated exactly: a recorded 0 allocs/op
// must stay 0.
//
// Usage:
//
//	go run ./cmd/benchgate [-file BENCH_hotpath.json] [-bench Pipeline]
//	    [-benchtime 5x] [-count 3] [-tolerance 0.15] [-pkg .]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

type benchEntry struct {
	MsPerOp     float64 `json:"ms_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

type trajectoryEntry struct {
	Commit     string                `json:"commit"`
	PR         string                `json:"pr"`
	Benchmarks map[string]benchEntry `json:"benchmarks"`
}

type benchFile struct {
	Trajectory []trajectoryEntry `json:"trajectory"`
}

// benchLine matches one `go test -bench` result line, tolerating the
// GOMAXPROCS suffix, custom metrics between the standard columns (the
// pipeline benchmarks report MB/s), and the optional -benchmem columns.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:.*?\s([\d.]+) B/op\s+(\d+) allocs/op)?`)

// measured is the best (minimum) observed result per benchmark across
// -count repetitions: minimum ns/op is the standard way to strip
// scheduler noise from a shared box, while allocations are taken at the
// maximum (any repetition allocating is a real allocation).
type measured struct {
	nsPerOp  float64
	allocsOp int64
	haveMem  bool
}

func main() {
	var (
		file      = flag.String("file", "BENCH_hotpath.json", "trajectory file with the reference entry")
		bench     = flag.String("bench", "Pipeline", "benchmark regex passed to go test -bench")
		benchtime = flag.String("benchtime", "5x", "per-benchmark benchtime")
		count     = flag.Int("count", 3, "repetitions; the minimum ns/op is compared")
		tolerance = flag.Float64("tolerance", 0.15, "allowed fractional ms/op regression vs the reference entry")
		pkg       = flag.String("pkg", ".", "package holding the benchmarks")
	)
	flag.Parse()

	ref, refLabel, err := loadReference(*file)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}

	args := []string{"test", "-run=NONE", "-bench=" + *bench,
		"-benchtime=" + *benchtime, "-count=" + strconv.Itoa(*count), "-benchmem", *pkg}
	fmt.Println("benchgate: go", strings.Join(args, " "))
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	os.Stdout.Write(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate: benchmark run failed:", err)
		os.Exit(2)
	}

	got := parseBench(string(out))
	if len(got) == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: no benchmark results parsed")
		os.Exit(2)
	}

	fmt.Printf("benchgate: comparing against %s (tolerance %.0f%%)\n", refLabel, *tolerance*100)
	failed := false
	for name, want := range ref {
		m, ok := got[name]
		if !ok {
			fmt.Printf("  %-28s SKIP (not run under -bench=%s)\n", name, *bench)
			continue
		}
		gotMs := m.nsPerOp / 1e6
		limit := want.MsPerOp * (1 + *tolerance)
		verdict := "ok"
		if gotMs > limit {
			verdict = "REGRESSION"
			failed = true
		}
		fmt.Printf("  %-28s %10.4g ms/op  (ref %.4g, limit %.4g)  %s\n",
			name, gotMs, want.MsPerOp, limit, verdict)
		if m.haveMem && float64(m.allocsOp) > want.AllocsPerOp {
			fmt.Printf("  %-28s %8d allocs/op (ref %.0f)  ALLOC REGRESSION\n",
				name, m.allocsOp, want.AllocsPerOp)
			failed = true
		}
	}
	if failed {
		fmt.Fprintln(os.Stderr, "benchgate: FAIL")
		os.Exit(1)
	}
	fmt.Println("benchgate: PASS")
}

// loadReference returns the benchmarks of the newest trajectory entry.
func loadReference(path string) (map[string]benchEntry, string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	var f benchFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, "", fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(f.Trajectory) == 0 {
		return nil, "", fmt.Errorf("%s has no trajectory entries", path)
	}
	last := f.Trajectory[len(f.Trajectory)-1]
	if len(last.Benchmarks) == 0 {
		return nil, "", fmt.Errorf("%s: newest entry %q has no benchmarks", path, last.Commit)
	}
	return last.Benchmarks, fmt.Sprintf("%q (%s)", last.Commit, last.PR), nil
}

// parseBench folds repeated -count lines into the min ns/op (and max
// allocs/op) per benchmark name.
func parseBench(out string) map[string]measured {
	got := make(map[string]measured)
	for _, line := range strings.Split(out, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		cur, seen := got[m[1]]
		if !seen || ns < cur.nsPerOp {
			cur.nsPerOp = ns
		}
		if m[4] != "" {
			allocs, _ := strconv.ParseInt(m[4], 10, 64)
			if allocs > cur.allocsOp {
				cur.allocsOp = allocs
			}
			cur.haveMem = true
		}
		got[m[1]] = cur
	}
	return got
}

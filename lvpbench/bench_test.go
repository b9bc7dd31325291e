package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks the
// program against.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runTiny runs one workload at a tiny size and returns its result and
// stats digest.
func runTiny(t *testing.T, workload string, traced bool, extra ...string) (result, string) {
	t.Helper()
	tr := "0"
	if traced {
		tr = "1"
	}
	args := append([]string{"-workload", workload, "-seconds", "0.3", "-scale", "0.05",
		"-trace", tr, "-work", t.TempDir()}, extra...)
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s trace=%s exited %d:\n%s", workload, tr, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", workload, err, stdout.String())
	}
	m := regexp.MustCompile(`(?m)^stats_digest (\S+)$`).FindStringSubmatch(stdout.String())
	if m == nil {
		t.Fatalf("%s: no stats_digest line:\n%s", workload, stdout.String())
	}
	if stderr.Len() > 0 {
		t.Logf("%s trace=%s stderr:\n%s", workload, tr, stderr.String())
	}
	return res, m[1]
}

// TestEveryWorkloadTiny runs every workload, untraced and traced, at a
// tiny size: each must pass its output checks, print exactly the
// metrics BENCHMARK.json names with their units, and produce the same
// stats digest traced as untraced.
func TestEveryWorkloadTiny(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range []string{"sim-vp", "sim-base", "serve-jobs", "cluster-sweep"} {
		t.Run(w, func(t *testing.T) {
			plain, d0 := runTiny(t, w, false)
			traced, d1 := runTiny(t, w, true)
			if d0 != d1 {
				t.Errorf("traced digest %s != untraced digest %s", d1, d0)
			}
			for _, c := range []struct {
				res   result
				names []struct{ Name, Unit string }
			}{{plain, spec.EndToEnd}, {traced, spec.PerLayer}} {
				if !c.res.Correct || c.res.Failed != 0 || c.res.Attempted < 1 {
					t.Errorf("result correct=%v failed=%d attempted=%d", c.res.Correct, c.res.Failed, c.res.Attempted)
				}
				if len(c.res.Metrics) != len(c.names) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(c.res.Metrics), len(c.names))
				}
				for _, n := range c.names {
					got, ok := c.res.Metrics[n.Name]
					if !ok {
						t.Errorf("metric %s missing", n.Name)
					} else if got.Unit != n.Unit {
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", n.Name, got.Unit, n.Unit)
					}
				}
			}
			for _, n := range spec.EndToEnd {
				if v := plain.Metrics[n.Name].Value; v <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", n.Name, v)
				}
			}
		})
	}
}

// TestWrongDigestIsAFailedCheck: a stats digest that does not match the
// expected one is counted as a failed check in the result, not a crash.
func TestWrongDigestIsAFailedCheck(t *testing.T) {
	res, _ := runTiny(t, "sim-base", false, "-expect-digest", "0123456789abcdef")
	if res.Correct || res.Failed != 1 {
		t.Fatalf("wrong digest: correct=%v failed=%d, want false and 1", res.Correct, res.Failed)
	}
	if len(res.Metrics) == 0 {
		t.Fatal("a failed check must still report the metrics")
	}
}

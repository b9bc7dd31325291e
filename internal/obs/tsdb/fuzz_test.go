package tsdb

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseExposition drives the exposition parser, which reads every
// scraped /metrics body, with arbitrary text. It must never panic, and
// what it parses is a fixed point: rendering it and parsing the
// rendering gives the same families.
func FuzzParseExposition(f *testing.F) {
	f.Add("# HELP lvpd_jobs_total Jobs by terminal state.\n# TYPE lvpd_jobs_total counter\nlvpd_jobs_total{state=\"done\"} 12\nlvpd_jobs_total{state=\"failed\"} 3\n")
	f.Add("# TYPE h histogram\nh_bucket{route=\"/v1/jobs\",le=\"0.1\"} 4\nh_bucket{le=\"+Inf\"} 6\nh_sum 1.25\nh_count 6\nuntyped_thing 1 1700000000000\n")
	f.Add("a_total{q=\"x \\\"quoted\\\" \\\\ back\",z=\"2\"} 7\nm NaN\nm2 -Inf\n# HELP m3\n")
	f.Add("metric{a=\"b\" 1\n# TYPE m frobnicator\nm 1\n")
	f.Fuzz(func(t *testing.T, in string) {
		fams, err := ParseExposition(strings.NewReader(in))
		if err != nil {
			return
		}
		var out strings.Builder
		if err := RenderExposition(&out, fams); err != nil {
			t.Fatalf("render: %v", err)
		}
		again, err := ParseExposition(strings.NewReader(out.String()))
		if err != nil {
			t.Fatalf("the rendering of a parsed exposition does not parse: %v\n%s", err, out.String())
		}
		if fmt.Sprintf("%+v", fams) != fmt.Sprintf("%+v", again) {
			t.Fatalf("parse → render → parse moved:\n%+v\nvs\n%+v", fams, again)
		}
	})
}

// FuzzParseExpr drives the /v1/metrics/query language and the alert
// comparison grammar with arbitrary text. Neither parser may panic, and
// a parsed expression's String parses back to the same expression.
func FuzzParseExpr(f *testing.F) {
	for _, s := range []string{
		"lvpd_queue_depth",
		`lvpd_jobs_total{state="failed"}`,
		"rate(lvpd_jobs_total[5m])",
		"avg( lvpd_queue_depth [60s] ) >= 48",
		"quantile(0.99, lvpd_http_request_duration_seconds[5m]) > 0.25",
		"max(up[30s]) != 1e3",
		`m{a="b",c="d\"e"} < -2`,
		"rate(lvpd_jobs_total[0s])",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		if c, err := ParseCmp(in); err == nil {
			if _, err := ParseCmp(c.String()); err != nil {
				t.Fatalf("ParseCmp(%q) renders %q, which does not parse: %v", in, c.String(), err)
			}
		}
		e, err := ParseExpr(in)
		if err != nil {
			return
		}
		again, err := ParseExpr(e.String())
		if err != nil {
			t.Fatalf("ParseExpr(%q) renders %q, which does not parse: %v", in, e.String(), err)
		}
		if !reflect.DeepEqual(again, e) {
			t.Fatalf("ParseExpr(%q) = %+v, but its rendering %q parses to %+v", in, e, e.String(), again)
		}
	})
}

// FuzzParseRules drives the -alerts-file parser with arbitrary bytes.
// It must never panic, and a rule set it accepts has named rules with
// parsed comparisons.
func FuzzParseRules(f *testing.F) {
	f.Add([]byte(`{"interval_seconds":2,"rules":[{"name":"queue","expr":"avg(lvpd_queue_depth[60s]) > 48","for_seconds":30,"severity":"page","summary":"backlog"}]}`))
	f.Add([]byte(`{"rules":[{"name":"a","expr":"up < 1"},{"name":"a","expr":"up < 1"}]}`))
	f.Add([]byte(`{"rules":[{"name":"b","expr":"rate(x_total[1m]) >"}],"webhook":"http://127.0.0.1:9/"}`))
	f.Add([]byte(`{"rules":[]}`))
	f.Fuzz(func(t *testing.T, in []byte) {
		rs, err := ParseRules(in)
		if err != nil {
			return
		}
		for _, r := range rs.Rules {
			if r.Name == "" || r.cmp.Op == "" {
				t.Fatalf("accepted rule %+v has no name or comparison", r)
			}
		}
		b, err := json.Marshal(rs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseRules(b); err != nil {
			t.Fatalf("an accepted rule set does not parse again: %v\n%s", err, b)
		}
	})
}

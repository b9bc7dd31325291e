package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/server"
	"repro/internal/spec"
	"repro/internal/trace"
)

// TestResultsMatchLvpd runs specs through lvpsim's simulate and through
// an in-process lvpd, and requires equal RunResults apart from the
// per-job throughput fields. On every spec with a predictor, an engine
// seeded with the spec's raw seed, as lvpsim's once was, must give
// another run, or the comparison could not tell the two seedings apart.
func TestResultsMatchLvpd(t *testing.T) {
	const insts = 5000
	srv, err := server.New(server.Config{Workers: 1, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})

	a2time := spec.WorkloadSpec{Name: "a2time", Insts: insts}
	for _, tc := range []struct {
		name string
		sim  spec.Sim
	}{
		{"composite", spec.Sim{Workload: a2time, Predictor: spec.PredictorSpec{Family: spec.FamilyComposite}}},
		{"best mix", spec.Sim{
			Workload:  spec.WorkloadSpec{Names: []string{"gcc2k", "mcf"}, Insts: insts},
			Machine:   spec.MachineSpec{Contexts: 2},
			Predictor: spec.PredictorSpec{Family: spec.FamilyBest},
		}},
		{"eves", spec.Sim{Workload: a2time, Predictor: spec.PredictorSpec{Family: spec.FamilyEVES}}},
		{"none", spec.Sim{Workload: a2time, Predictor: spec.PredictorSpec{Family: spec.FamilyNone}}},
	} {
		sim := tc.sim
		sim.Run.Seed = server.DefaultSeed
		sim.Normalize(spec.Defaults{})
		if err := sim.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		o := simulate(sim, string(sim.Predictor.Family), func(string) func() { return func() {} })

		want := serve(t, ts.URL, sim)
		want.SimInstructions, want.SimMIPS = 0, 0
		if !reflect.DeepEqual(o.res, want) {
			t.Errorf("%s: lvpsim's result differs from lvpd's for the same spec\n got: %+v\nwant: %+v", tc.name, o.res, want)
		}

		if sim.Predictor.Family == spec.FamilyNone {
			continue // no engine, no seed
		}
		raw, err := spec.NewEngine(sim.Predictor, insts, sim.Run.Seed)
		if err != nil {
			t.Fatal(err)
		}
		var gens []trace.Generator
		for _, s := range sim.ContextStreams() {
			g, _ := trace.BuildStream(s, insts)
			gens = append(gens, g)
		}
		r := cpu.New(sim.Machine.Config(), raw).RunSMT(gens, sim.ContextWorkloads(), sim.WorkloadLabel(), o.run.Merged.Config)
		if r == o.run.Merged {
			t.Errorf("%s: an engine on the raw seed runs the same, so the comparison shows nothing", tc.name)
		}
	}
}

// TestDetailsOnEveryMachine requires -details to print the composite's
// statistics after the plain text, one predicted-loads line, one line
// per component and the storage line, on a multi-context run as on a
// single-context one.
func TestDetailsOnEveryMachine(t *testing.T) {
	for _, contexts := range []int{0, 2} {
		sim := spec.Sim{
			Workload:  spec.WorkloadSpec{Name: "gcc2k", Insts: 5000},
			Machine:   spec.MachineSpec{Contexts: contexts},
			Predictor: spec.PredictorSpec{Family: spec.FamilyComposite},
			Run:       spec.RunSpec{Seed: server.DefaultSeed},
		}
		sim.Normalize(spec.Defaults{})
		if err := sim.Validate(); err != nil {
			t.Fatal(err)
		}
		o := simulate(sim, "composite", func(string) func() { return func() {} })
		var plain, details strings.Builder
		printText(&plain, o, sim, "composite", false)
		printText(&details, o, sim, "composite", true)
		extra, ok := strings.CutPrefix(details.String(), plain.String())
		lines := strings.Split(strings.TrimSuffix(extra, "\n"), "\n")
		if !ok || len(lines) != 2+len(o.res.Components) ||
			!strings.Contains(lines[0], "predicted loads:") || !strings.Contains(lines[len(lines)-1], "storage:") {
			t.Errorf("contexts %d: -details printed\n%s\nafter\n%s", contexts, extra, plain.String())
		}
	}
}

// serve submits sim to the lvpd at base and returns the job's result
// once it is done.
func serve(t *testing.T, base string, sim spec.Sim) server.RunResult {
	t.Helper()
	body, _ := json.Marshal(server.JobRequest{Spec: &sim})
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st server.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(time.Minute); st.State != server.StateDone; {
		if st.State == server.StateFailed || st.State == server.StateCanceled || time.Now().After(deadline) {
			t.Fatalf("job %s: state %s (%s)", st.ID, st.State, st.Error)
		}
		time.Sleep(10 * time.Millisecond)
		resp, err := http.Get(base + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	return *st.Result
}

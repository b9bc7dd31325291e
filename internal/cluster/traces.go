package cluster

import (
	"context"
	"errors"
	"runtime"
	"sync"

	"repro/internal/trace"
)

// shipTraces records each distinct (workload, insts) stream of an
// uploaded trace among the launched points once and uploads the
// resulting artifacts to every active worker (PUT /v1/traces/{hash}).
// A worker cannot rebuild an uploaded trace from its name, and the
// artifact also registers the ext: name there, so StartSweep runs this
// before dispatch. Synthetic streams are not shipped: each worker
// generates the ones its points use, which costs less than decoding a
// shipped artifact (DESIGN.md §13.1). Streams are recorded and encoded
// on up to GOMAXPROCS goroutines, and each artifact's uploads start as
// soon as it is encoded.
//
// Failures are logged and counted, not returned. A worker that misses
// its upload — registered mid-sweep, transient network failure,
// artifact too large — rejects the points that need the trace unless
// it already holds it.
func (c *Coordinator) shipTraces(sw *sweep, launch []*point) {
	type workloadSpec struct {
		name  string
		insts uint64
	}
	specs := make(map[workloadSpec]struct{})
	for _, pt := range launch {
		// Multi-context points replay one stream per hardware context;
		// single-context points reduce to the bare workload name.
		for _, stream := range pt.sim.ContextStreams() {
			if !trace.Regenerable(stream) {
				specs[workloadSpec{stream, pt.sim.Workload.Insts}] = struct{}{}
			}
		}
	}
	if len(specs) == 0 {
		return
	}

	c.mu.Lock()
	var urls []string
	for _, w := range c.workers {
		if w.state == WorkerActive {
			urls = append(urls, w.url)
		}
	}
	c.mu.Unlock()
	if len(urls) == 0 {
		return
	}

	todo := make(chan workloadSpec, len(specs))
	for ws := range specs {
		todo <- ws
	}
	close(todo)
	var wg sync.WaitGroup
	for g := min(runtime.GOMAXPROCS(0), len(specs)); g > 0; g-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ws := range todo {
				key, data, err := c.Traces().Artifact(ws.name, ws.insts)
				if errors.Is(err, trace.ErrOversize) {
					continue // too big to record, so too big to ship
				}
				if err != nil {
					// Unknown workload or unreadable cache: dispatch
					// validation will surface the former; the latter only
					// loses the reuse.
					c.log.Warn("trace artifact unavailable, not shipped",
						"sweep", sw.id, "workload", ws.name, "insts", ws.insts, "err", err)
					continue
				}
				for _, url := range urls {
					wg.Add(1)
					go func(url string) {
						defer wg.Done()
						ctx, cancel := context.WithTimeout(c.lifeCtx, c.cfg.PointDeadline)
						defer cancel()
						if err := c.workerClient(url, nil).putTrace(ctx, key, data); err != nil {
							c.mTraceShipFailed.Inc()
							c.log.Warn("trace artifact ship failed",
								"sweep", sw.id, "worker", url, "artifact", key, "err", err)
							return
						}
						c.mTraceShipped.Inc()
					}(url)
				}
			}
		}()
	}
	wg.Wait()
}

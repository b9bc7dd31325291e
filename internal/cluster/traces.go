package cluster

import (
	"context"
	"errors"
	"runtime"
	"sync"

	"repro/internal/trace"
)

// shipTraces records each distinct (workload, insts) stream among the
// launched points once and uploads the resulting artifacts to every
// active worker (PUT /v1/traces/{hash}). It runs synchronously in
// StartSweep, before dispatch: artifacts are small (a gzip-compressed
// stream, a few bytes per instruction) and shipping them first means
// even the sweep's first point replays a recording. Streams are
// recorded and encoded on up to GOMAXPROCS goroutines, and each
// artifact's uploads start as soon as it is encoded.
//
// Everything here is best-effort. A worker that misses its upload —
// registered mid-sweep, transient network failure, artifact too large —
// simply generates the stream live when its first point arrives, which
// is exactly the pre-shipping behavior.
func (c *Coordinator) shipTraces(sw *sweep, launch []*point) {
	if len(launch) == 0 {
		return
	}
	type workloadSpec struct {
		name  string
		insts uint64
	}
	specs := make(map[workloadSpec]struct{})
	for _, pt := range launch {
		// Multi-context points replay one stream per hardware context;
		// single-context points reduce to the bare workload name.
		for _, stream := range pt.sim.ContextStreams() {
			specs[workloadSpec{stream, pt.sim.Workload.Insts}] = struct{}{}
		}
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
					continue // too big to record; every worker generates live
				}
				if err != nil {
					// Unknown workload or unreadable cache: dispatch
					// validation will surface the former; the latter only
					// loses the reuse.
					c.log.Warn("trace artifact unavailable, workers will generate live",
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
							c.log.Warn("trace artifact ship failed, worker will generate live",
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

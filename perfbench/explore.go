package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/openstream/aftermath/internal/ingest"
)

// exploreRounds is how many times an explore run starts its server.
// Each round loads the first view on a fresh server and walks its share
// of the path, scans its share of the anomaly windows and replays its
// share of the walk warm, so that every figure pools samples from across
// the run (see hubRounds).
const exploreRounds = 4

// walkSteps is the length of the explore walk per ten seconds of run:
// three rounds of the zoom zigzag, so every step's depth meets every
// timeline mode once.
const walkSteps = 48

// anomalyReps is how often a local session scans each anomaly window.
const anomalyReps = 3

// warmFor is how long a session replays its URL set for warm samples.
const warmFor = 2 * time.Second

// sliceLen is the length of the slices warm figures and throughput are
// medians over.
const sliceLen = 250 * time.Millisecond

// runExplore is the explore-seidel session: one closed-loop client on
// the single-trace viewer of the raw seidel trace. It loads the first
// view, walks a seeded pan/zoom path, scans a fixed set of anomaly
// windows, then replays the walk for warm samples.
func runExplore(cfg config, in *inputs, r *report) error {
	sess := newSession(r)
	rng := rand.New(rand.NewSource(cfg.seed))
	var setupS, firstMs, rssMB, anomalies []float64
	var warm []phase
	var steps, windows []view
	walked := 0
	var walkTime time.Duration
	for round := 0; round < exploreRounds; round++ {
		s, d, err := startServer(cfg, fmt.Sprintf("explore-%d.log", round), "/live", nil, in.seidel)
		if err != nil {
			return err
		}
		setupS = append(setupS, d.Seconds())
		st, err := liveOf(s.base + "/live")
		if err != nil {
			s.stop()
			return err
		}
		if round == 0 {
			steps = walk(rng, st.Start, st.End, walkSteps*max(1, cfg.seconds/10))
			windows = anomalyWindows(rng, st.Start, st.End)
		}

		sess.base = s.base
		firstMs = append(firstMs, ms(sess.firstView("/", [2]int64{st.Start, st.End})))
		start := time.Now()
		var urls []string
		for i := round * len(steps) / exploreRounds; i < (round+1)*len(steps)/exploreRounds; i++ {
			for _, rel := range stepURLs(i, steps[i]) {
				sess.fetch("/", rel)
				urls = append(urls, rel)
			}
		}
		walkTime += time.Since(start)
		walked += len(urls)
		share := windows[round*len(windows)/exploreRounds : (round+1)*len(windows)/exploreRounds]
		anomalies = append(anomalies, sess.scanAnomalies("/", share, anomalyReps)...)
		warm = append(warm, replay(sess, "/", urls, warmFor/exploreRounds))
		rss, err := s.peakRSSMB()
		s.stop()
		if err != nil {
			return err
		}
		rssMB = append(rssMB, rss)
	}

	note("setups %.3v s, first views %.4v ms, peak RSS %.4v MB", setupS, firstMs, rssMB)
	r.add("setup_s", median(setupS), "s")
	r.add("first_view_ms", median(firstMs), "ms")
	sess.latencyMetrics(warm...)
	r.add("anomalies_p50_ms", median(anomalies), "ms")
	r.add("throughput_rps", float64(walked)/walkTime.Seconds(), "1/s")
	r.add("peak_rss_mb", median(rssMB), "MB")
	note("walk: %d requests in %.1fs, 1 closed-loop client, %d rounds", walked, walkTime.Seconds(), exploreRounds)

	tr, err := ingest.Open(in.seidel)
	if err != nil {
		return err
	}
	sess.ver["/"].verify(tr, r)
	return nil
}

// replay fetches urls in order, pass after pass, for d and at least
// once: the warm samples of a URL set already read. It returns the
// replay as a warm phase.
func replay(sess *session, prefix string, urls []string, d time.Duration) phase {
	start := time.Now()
	deadline := start.Add(d)
	for p := 0; p == 0 || time.Now().Before(deadline); p++ {
		for _, rel := range urls {
			sess.fetch(prefix, rel)
		}
	}
	end := time.Now()
	return phase{start, end, max(1, int(end.Sub(start)/sliceLen))}
}

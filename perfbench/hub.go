package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/openstream/aftermath/internal/ingest"
)

// hubRounds is how many times a hub run starts its server. Each round
// runs the whole session in small on a fresh server: the first views,
// the cold pass over the URL set, a share of the anomaly windows and a
// share of the Zipf phase. Every figure then pools samples from across
// the run, not from one stretch of it: on a shared virtual machine the
// host's speed drifts over seconds.
const hubRounds = 3

// hubClients is the number of closed-loop clients of the hub session.
const hubClients = 2

// hubURLs is the fixed URL set of one hub trace: twelve views (the full
// span and windows down to 1/128 of it, see fixedView), each with the
// coarse and the exact tile, in a rotating mode, and the statistics; the
// matrix, two plots, and four anomaly windows. The responses of the
// three traces' sets, a few MB, fit the default 32 MB response cache.
func hubURLs(rng *rand.Rand, start, end int64) []string {
	views := []view{{start, end}}
	for k, frac := range []float64{0.5, 0.3, 0.7, 0.2, 0.6, 0.4, 0.8, 0.1, 0.9, 0.35, 0.65} {
		views = append(views, fixedView(rng, start, end, 2<<(k%7), frac))
	}
	var urls []string
	for j, v := range views {
		m := modes[j%len(modes)]
		urls = append(urls,
			"render?mode="+m+"&"+v.params()+"&w=1100&h=420&level=3",
			"render?mode="+m+"&"+v.params()+"&w=1100&h=420",
			"stats?"+v.params())
	}
	urls = append(urls, "matrix", "plot?kind=idle&w=1100&h=180", "plot?kind=avgdur&w=1100&h=180")
	for _, div := range []int64{4, 8} {
		for _, frac := range []float64{0.3, 0.7} {
			urls = append(urls, "anomalies?"+fixedView(rng, start, end, div, frac).params())
		}
	}
	return urls
}

// listing decodes /traces.
func listing(body []byte) ([]liveStatus, error) {
	var ls []liveStatus
	err := json.Unmarshal(body, &ls)
	return ls, err
}

// runHub is the hub-mixed session: -serve over one directory holding a
// gzip seidel trace, a kmeans store snapshot and a span stream; two
// closed-loop clients send a seeded Zipf-skewed mix over the fixed URL
// sets of the three traces.
func runHub(cfg config, in *inputs, r *report) error {
	want := map[string]int{"seidel": in.seidelTasks, "kmeans.atms": in.kmeansTasks, "spans": in.spanCount}
	ready := func(b []byte) bool {
		ls, err := listing(b)
		return err == nil && len(ls) == len(want)
	}
	sess := newSession(r)
	rng := rand.New(rand.NewSource(cfg.seed))
	var setupS, firstMs, rssMB, anomalies []float64
	var steady []phase
	var set []hubTarget
	windows := map[string][]view{}
	for round := 0; round < hubRounds; round++ {
		s, d, err := startServer(cfg, fmt.Sprintf("hub-%d.log", round), "/traces", ready, "-serve", in.hubDir)
		if err != nil {
			return err
		}
		setupS = append(setupS, d.Seconds())
		traces, err := listing(get(s.base+"/traces", new(bytes.Buffer)).body)
		if err != nil {
			s.stop()
			return err
		}
		r.check(len(traces) == len(want), "/traces lists %d traces, want %d", len(traces), len(want))
		for _, t := range traces {
			r.check(want[t.Name] > 0 && t.Tasks == want[t.Name], "/traces: %s has %d tasks, generated %d", t.Name, t.Tasks, want[t.Name])
		}
		if round == 0 {
			for _, t := range traces {
				for _, rel := range hubURLs(rng, t.Start, t.End) {
					set = append(set, hubTarget{"/t/" + t.Name + "/", rel})
				}
				windows[t.Name] = anomalyWindows(rng, t.Start, t.End)
			}
			rng.Shuffle(len(set), func(i, j int) { set[i], set[j] = set[j], set[i] })
		}

		sess.base = s.base
		// One sample per round: the mean first view of the three
		// traces, each of which a user may open first.
		var sum float64
		for _, t := range traces {
			sum += ms(sess.firstView("/t/"+t.Name+"/", [2]int64{t.Start, t.End}))
		}
		firstMs = append(firstMs, sum/float64(len(traces)))
		hubCold(sess, set)
		// One client scans this round's share of each trace's anomaly
		// windows.
		for _, t := range traces {
			w := windows[t.Name]
			share := w[round*len(w)/hubRounds : (round+1)*len(w)/hubRounds]
			anomalies = append(anomalies, sess.scanAnomalies("/t/"+t.Name+"/", share, 1)...)
		}
		steady = append(steady, hubZipf(cfg, sess, set, round))
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
	sess.latencyMetrics(steady...)
	r.add("anomalies_p50_ms", median(anomalies), "ms")
	r.add("throughput_rps", sess.throughput(steady...), "1/s")
	r.add("peak_rss_mb", median(rssMB), "MB")
	note("mix: %d URLs over 3 traces, %d closed-loop clients, a cold pass then Zipf s=1.1, %d rounds", len(set), hubClients, hubRounds)

	for name, path := range map[string]string{"seidel": in.seidelGz, "kmeans.atms": in.store, "spans": in.spans} {
		tr, err := ingest.Open(path)
		if err != nil {
			return err
		}
		sess.ver["/t/"+name+"/"].verify(tr, r)
		tr.Close()
		runtime.GC()
	}
	return nil
}

// hubTarget is one URL of the hub mix.
type hubTarget struct{ prefix, rel string }

// hubClientsDo runs fn on each of the two clients and waits for both.
func hubClientsDo(fn func(c int)) {
	var wg sync.WaitGroup
	for c := 0; c < hubClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c)
		}()
	}
	wg.Wait()
}

// hubCold runs the two clients together through the whole set in its
// shuffled order, which fetches every URL once, cold.
func hubCold(sess *session, set []hubTarget) {
	var next atomic.Int64
	hubClientsDo(func(int) {
		for i := next.Add(1) - 1; i < int64(len(set)); i = next.Add(1) - 1 {
			sess.fetch(set[i].prefix, set[i].rel)
		}
	})
}

// hubZipf runs each client on its own seeded Zipf mix over the set, for
// the round's share of the run's seconds. Served from the cache, the
// mix gives the warm samples and the throughput, in quarter-second
// slices. It returns the mix as a phase.
func hubZipf(cfg config, sess *session, set []hubTarget, round int) phase {
	d := time.Duration(cfg.seconds) * time.Second / hubRounds
	now := time.Now()
	p := phase{now, now.Add(d), max(1, int(d/sliceLen))}
	hubClientsDo(func(c int) {
		crng := rand.New(rand.NewSource((cfg.seed*hubRounds+int64(round))*hubClients + int64(c)))
		z := rand.NewZipf(crng, 1.1, 1, uint64(len(set)-1))
		for time.Now().Before(p.to) {
			i := z.Uint64()
			sess.fetch(set[i].prefix, set[i].rel)
		}
	})
	return p
}

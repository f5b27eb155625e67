package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"adavp/internal/adapt"
	"adavp/internal/core"
	"adavp/internal/detect"
	"adavp/internal/metrics"
	"adavp/internal/obs"
	"adavp/internal/rt"
	"adavp/internal/serve"
	"adavp/internal/track"
	"adavp/internal/video"
)

// instrument wraps a run's detectors and trackers: result hooks in untraced
// runs, traced wrappers in traced runs. A nil instrument leaves them bare.
type instrument struct {
	hooks []*streamHooks
	tr    *tracer
}

// newInstrument allocates every record a run will write before it starts:
// one hook table per stream, or spans for six per frame.
func newInstrument(traced bool, frames []int) *instrument {
	in := &instrument{}
	if traced {
		total := 0
		for _, n := range frames {
			total += n
		}
		in.tr = newTracer(6*total + 1024)
		return in
	}
	for _, n := range frames {
		in.hooks = append(in.hooks, newStreamHooks(n))
	}
	return in
}

// startStream sets the instant a stream's hook records are measured from:
// the moment its run began, which is also when its camera starts capturing.
func (in *instrument) startStream(stream int, t time.Time) {
	if in.hooks != nil {
		in.hooks[stream].base = t
	}
}

func (in *instrument) detector(stream int, d detect.Detector) detect.Detector {
	switch {
	case in == nil:
		return d
	case in.tr != nil:
		return newTracedDetector(d, in.tr, stream)
	default:
		return &hookDetector{inner: d, h: in.hooks[stream]}
	}
}

func (in *instrument) tracker(stream int, t track.Tracker) track.Tracker {
	switch {
	case in == nil:
		return t
	case in.tr != nil:
		return newTracedTracker(t, in.tr, stream)
	default:
		return &hookTracker{inner: t, h: in.hooks[stream]}
	}
}

// liveRun is one measured rt.Run or serve.Run.
type liveRun struct {
	videos   []*video.Video
	interval time.Duration // scaled capture interval
	reg      *obs.Registry
	results  []*rt.Result
	errs     []error
	stats    *serve.StatsSnapshot // serve.Run only
	pixels   bool                 // pixel-mode streams, run one after another
	parallel int                  // streams running at once
	wall     time.Duration
	cpu      time.Duration
	peakMB   float64
}

// measure runs fn with the process clean: garbage collected, peak RSS reset,
// CPU and wall time taken around it. The deadline only guards the 180 s the
// benchmark may take; a run it cuts is partial and fails the checks.
func (lr *liveRun) measure(r *report, in *instrument, fn func(ctx context.Context)) {
	startPeakRSS(r)
	video := time.Duration(lr.frames()/lr.parallel) * lr.interval
	ctx, cancel := context.WithTimeout(context.Background(), 2*video+30*time.Second)
	defer cancel()
	steal0, ticks0 := hostSteal()
	cpu0 := cpuTime()
	t0 := time.Now()
	if in.tr != nil {
		in.tr.base = t0
	}
	fn(ctx)
	lr.wall = time.Since(t0)
	lr.cpu = cpuTime() - cpu0
	r.Notes["host_steal_share"] = stealShare(steal0, ticks0)
	lr.peakMB = peakRSSMB()
}

// frames returns the number of captured frames over all streams.
func (lr *liveRun) frames() int {
	n := 0
	for _, v := range lr.videos {
		n += v.NumFrames()
	}
	return n
}

// warmPixel warms the pixel kernels, scratch pools and worker goroutines on
// a detector and tracker the measured run does not use.
func warmPixel(v *video.Video) {
	f0, f1 := v.FrameWithPixels(0), v.FrameWithPixels(1)
	t := track.NewPixelTracker()
	t.Init(f0, detect.NewBlobDetector().Detect(f0, core.Setting512))
	t.Step(f1)
}

// livePixelVideo is the city-street scene at 704×396, the blob detector's
// 704 reference input in 16:9, which puts the kernels on their tiled path.
func livePixelVideo(seed uint64, frames int) *video.Video {
	p := video.ScenarioParams(video.KindCityStreet)
	p.W, p.H = 704, 396
	return video.Generate(fmt.Sprintf("city-street-704-%d", seed), p, seed, frames)
}

// livePixelTrialSeconds is the length of one live-pixel trial. A saturated
// stream settles into tracking one or two frames per cycle depending on its
// first cycles, so one long stream reads one of two levels; the workload
// runs independent trials back to back and reports over all of them. Trial
// t shows the fixed clip t+1; the workload seed seeds the pipelines. Seeded
// scene content alone moves accuracy by up to 2× between seeds at this
// length, far more than any change this benchmark must resolve.
const livePixelTrialSeconds = 5

// runLivePixel is one AdaVP stream in pixel mode at real time with the
// frame prefetcher at depth 2, configured as adavp.RunLive configures it,
// run as back-to-back trials of livePixelTrialSeconds on distinct videos.
func runLivePixel(c config, r *report) error {
	const timeScale, depth = 1.0, 2
	trials := max(c.seconds/livePixelTrialSeconds, 1)
	frames := c.seconds * 30 / trials
	var videos []*video.Video
	var reg *obs.Registry
	setup, n := setupTimes(5, func() {
		videos = make([]*video.Video, trials)
		for t := range videos {
			videos[t] = livePixelVideo(uint64(t+1), frames)
		}
		reg = obs.NewRegistry()
		warmPixel(videos[0])
	})
	r.set("setup_s", setup, n)
	r.Notes["trials"] = trials
	r.Notes["frames_per_trial"] = frames
	r.Notes["time_scale"] = timeScale
	r.Notes["pipeline_depth"] = depth

	counts := make([]int, trials)
	for t := range counts {
		counts[t] = frames
	}
	in := newInstrument(c.traced, counts)
	lr := &liveRun{videos: videos, interval: scaled(videos[0].FrameInterval(), timeScale), reg: reg, pixels: true, parallel: 1}
	lr.measure(r, in, func(ctx context.Context) {
		for t, v := range videos {
			cfg := rt.Config{
				Seed:          c.seed*1000 + uint64(t),
				TimeScale:     timeScale,
				PixelMode:     true,
				Obs:           reg,
				PipelineDepth: depth,
				Adaptation:    adapt.DefaultModel(),
				Detector:      in.detector(t, detect.NewBlobDetector()),
				NewTracker:    func(uint64) track.Tracker { return in.tracker(t, track.NewPixelTracker()) },
			}
			in.startStream(t, time.Now())
			res, err := rt.Run(ctx, v, cfg)
			lr.results, lr.errs = append(lr.results, res), append(lr.errs, err)
		}
	})
	return finishLive(c, r, in, lr)
}

// runServeContended is 32 surrogate-model streams over 4 detector slots of
// the live serve.Pool, batch 4, configured as adavp.RunLiveMulti configures
// them; the fourteen paper scenarios are assigned round-robin.
func runServeContended(c config, r *report) error {
	const (
		streams, slots, batch = 32, 4, 4
		linger                = 5 * time.Millisecond
		timeScale             = 0.25
	)
	kinds := video.AllKinds()
	frames := int(float64(c.seconds) * 30 / timeScale)
	var videos []*video.Video
	var reg *obs.Registry
	setup, n := setupTimes(5, func() {
		videos = make([]*video.Video, streams)
		for i := range videos {
			k, seed := kinds[i%len(kinds)], c.seed+uint64(i)
			videos[i] = video.GenerateKind(fmt.Sprintf("%s-%d", k, seed), k, seed, frames)
		}
		reg = obs.NewRegistry()
		f0, f1 := videos[0].Frame(0), videos[0].Frame(1)
		t := track.NewModelTracker(c.seed)
		t.SetBounds(videos[0].Bounds())
		t.Init(f0, detect.NewSimDetector(c.seed, videos[0].Params.W, videos[0].Params.H).Detect(f0, core.Setting512))
		t.Step(f1)
	})
	r.set("setup_s", setup, n)
	r.Notes["streams"], r.Notes["slots"], r.Notes["batch"] = streams, slots, batch
	r.Notes["frames_per_stream"] = frames
	r.Notes["time_scale"] = timeScale

	counts := make([]int, streams)
	for i := range counts {
		counts[i] = frames
	}
	in := newInstrument(c.traced, counts)
	specs := make([]serve.StreamSpec, streams)
	for i, v := range videos {
		specs[i] = serve.StreamSpec{ID: fmt.Sprintf("s%d", i), Video: v, Config: rt.Config{
			Seed:       c.seed + uint64(i),
			TimeScale:  timeScale,
			Adaptation: adapt.DefaultModel(),
			Detector:   in.detector(i, detect.NewSimDetector(c.seed+uint64(i), v.Params.W, v.Params.H)),
			NewTracker: func(seed uint64) track.Tracker {
				mt := track.NewModelTracker(seed)
				mt.SetBounds(v.Bounds())
				return in.tracker(i, mt)
			},
		}}
	}
	lr := &liveRun{videos: videos, interval: scaled(videos[0].FrameInterval(), timeScale), reg: reg, parallel: streams}
	var runErr error
	lr.measure(r, in, func(ctx context.Context) {
		t0 := time.Now()
		for i := range specs {
			in.startStream(i, t0)
		}
		res, err := serve.Run(ctx, specs, serve.RunConfig{
			Slots: slots, Batch: serve.BatchConfig{Size: batch, Linger: linger}, Obs: reg,
		})
		if err != nil {
			runErr = err
			return
		}
		lr.stats = &res.Stats
		for _, s := range res.Streams {
			lr.results = append(lr.results, s.Result)
			lr.errs = append(lr.errs, s.Err)
		}
	})
	if runErr != nil {
		return runErr
	}
	return finishLive(c, r, in, lr)
}

func scaled(d time.Duration, s float64) time.Duration { return time.Duration(float64(d) * s) }

// finishLive checks a live run's outputs and derives its metrics.
func finishLive(c config, r *report, in *instrument, lr *liveRun) error {
	r.Attempted = lr.frames()
	var accs, f1s []float64
	startupFrames := 0
	for s, res := range lr.results {
		v := lr.videos[s]
		if res == nil || lr.errs[s] != nil || res.Partial {
			r.check("streams_complete", false, fmt.Sprintf("stream %d: partial or failed run: %v", s, lr.errs[s]))
			r.Failed += v.NumFrames()
			continue
		}
		r.check("streams_complete", true, "")
		// Every captured frame has an output record. Frames captured before
		// the stream's first calibration have nothing to display (source
		// none, no boxes) by design; from the first calibration on, every
		// frame must display a detector, tracker or held result.
		missing, startup, displayed := 0, 0, false
		frameF1 := make([]float64, len(res.Outputs))
		for i, out := range res.Outputs {
			switch {
			case out.Source != core.SourceNone:
				displayed = true
			case displayed || out.FrameIndex != i:
				missing++
			default:
				startup++
			}
			frameF1[i] = metrics.FrameF1(out.Detections, v.Truth(i), metrics.DefaultIoU)
		}
		startupFrames += startup
		r.Failed += missing
		r.check("every_frame_has_output", missing == 0 && len(res.Outputs) == v.NumFrames(),
			fmt.Sprintf("stream %d: %d of %d frames without output after the first calibration", s, missing, v.NumFrames()))
		acc, mf1 := metrics.VideoAccuracy(frameF1, metrics.DefaultAlpha), metrics.Mean(frameF1)
		r.check("accuracy_recomputed", acc == res.Accuracy && mf1 == res.MeanF1,
			fmt.Sprintf("stream %d: recomputed accuracy %v / mean F1 %v, reported %v / %v", s, acc, mf1, res.Accuracy, res.MeanF1))
		accs = append(accs, res.Accuracy)
		f1s = append(f1s, res.MeanF1)
	}
	r.Notes["frames_before_first_calibration"] = startupFrames
	if len(accs) != len(lr.results) {
		return nil // the checks failed; no metric is meaningful
	}
	if c.traced {
		return liveLayers(c, r, in, lr)
	}
	r.set("accuracy", mean(accs), len(accs))
	r.set("mean_f1", mean(f1s), len(f1s))
	liveEndToEnd(r, in, lr)
	return nil
}

// liveEndToEnd derives the end-to-end metrics from the outputs and the
// result hooks' return times.
func liveEndToEnd(r *report, in *instrument, lr *liveRun) {
	var lags, gaps []float64
	fresh, dets, attempts, fails, missing := 0, 0, 0, 0, 0
	for s, res := range lr.results {
		h := in.hooks[s]
		var calib []int64
		for i, out := range res.Outputs {
			var ret int64
			switch out.Source {
			case core.SourceDetector:
				ret = h.detRet[i].Load()
				if ret != 0 {
					calib = append(calib, ret)
				}
				dets++
			case core.SourceTracker:
				ret = h.stepRet[i].Load()
			default:
				continue
			}
			fresh++
			if ret == 0 {
				missing++
				continue
			}
			capture := int64(i) * int64(lr.interval)
			lags = append(lags, ms(time.Duration(ret-1-capture)))
		}
		sort.Slice(calib, func(a, b int) bool { return calib[a] < calib[b] })
		for k := 1; k < len(calib); k++ {
			gaps = append(gaps, ms(time.Duration(calib[k]-calib[k-1])))
		}
		attempts += int(h.calls.Load()) + res.Deferred
		fails += res.Faults.Timeouts + res.Faults.Panics + res.Faults.EmptyBursts + res.Deferred
	}
	r.check("hook_saw_every_fresh_output", missing == 0, fmt.Sprintf("%d fresh outputs without a hooked call", missing))
	frames := lr.frames()
	r.set("fresh_share", float64(fresh)/float64(frames), frames)
	r.set("calib_gap_p50_ms", quantile(gaps, 0.5), len(gaps))
	r.set("calib_gap_p90_ms", quantile(gaps, 0.9), len(gaps))
	r.set("result_lag_p50_ms", quantile(lags, 0.5), len(lags))
	r.set("result_lag_p99_ms", quantile(lags, 0.99), len(lags))
	r.Tails["calib_gap_p90_ms"] = "p90, nearest rank"
	r.Tails["result_lag_p99_ms"] = "p99, nearest rank"
	r.set("detections_per_s", float64(dets)/lr.wall.Seconds(), dets)
	r.set("cpu_ms_per_frame", ms(lr.cpu)/float64(frames), frames)
	r.set("offline_fps", float64(frames)/lr.wall.Seconds(), frames)
	r.set("max_rss_mb", lr.peakMB, 1)
	r.set("detect_ok_share", 1-float64(fails)/float64(max(attempts, 1)), attempts)
}

// liveLayers derives the per-layer metrics of a traced live run.
func liveLayers(c config, r *report, in *instrument, lr *liveRun) error {
	spans := in.tr.recorded()
	r.check("trace_complete", in.tr.dropped.Load() == 0, fmt.Sprintf("%d spans dropped", in.tr.dropped.Load()))
	st := analyze(spans)
	frames := lr.frames()
	st.report(r, len(spans), in.tr.liveFeat.Load(), 1)

	// Frames consumed per stream, and the frames handed to the tracker: the
	// gaps between consecutive detected frames.
	consumed := map[[2]int32]bool{}
	detFrames := make([][]int32, len(lr.videos))
	for _, sp := range spans {
		consumed[[2]int32{sp.stream, sp.frame}] = true
		if sp.name == spanDetect {
			detFrames[sp.stream] = append(detFrames[sp.stream], sp.frame)
		}
	}
	buffered := 0
	for _, fs := range detFrames {
		sort.Slice(fs, func(a, b int) bool { return fs[a] < fs[b] })
		for k := 1; k < len(fs); k++ {
			if d := int(fs[k]-fs[k-1]) - 1; d > 0 {
				buffered += d
			}
		}
	}
	// Renders happen inside rt, out of the hooks' reach, so they are timed
	// after the run over a sample of the frames the run consumed.
	renderMS, renders := 0.0, 0
	if lr.pixels {
		renderMS, renders = timeRenders(lr.videos, consumed, 60)
	}
	r.set("video.render_ms", renderMS, renders)
	r.set("video.frames_consumed", float64(len(consumed)), len(consumed))
	r.set("rt.tracked_of_buffered", float64(st.count[spanTrackStep])/float64(max(buffered, 1)), buffered)

	cycles, switches, timeouts, retries, downgrades := 0, 0, 0, 0, 0
	var inputPx []float64
	for _, res := range lr.results {
		cycles += res.Cycles
		switches += res.Switches
		timeouts += res.Faults.Timeouts
		retries += res.Faults.Retries
		downgrades += res.Faults.Downgrades
		for _, out := range res.Outputs {
			if out.Source == core.SourceDetector {
				inputPx = append(inputPx, float64(out.Setting.InputSize()))
			}
		}
	}
	r.set("rt.cycles", float64(cycles), len(lr.results))
	streamWall := lr.wall.Seconds() * float64(lr.parallel)
	r.set("rt.detector_busy_share", st.total[spanDetect].Seconds()/streamWall, st.count[spanDetect])
	r.set("rt.tracker_busy_share", (st.total[spanTrackInit]+st.total[spanTrackStep]).Seconds()/streamWall,
		st.count[spanTrackInit]+st.count[spanTrackStep])
	attributed := st.total[spanDetect] + st.total[spanTrackInit] + st.total[spanTrackStep] +
		time.Duration(renderMS*float64(len(consumed))*float64(time.Millisecond))
	r.set("rt.cpu_unattributed_share", 1-attributed.Seconds()/lr.cpu.Seconds(), len(spans))
	r.set("guard.timeouts", float64(timeouts), len(lr.results))
	r.set("guard.retries", float64(retries), len(lr.results))
	r.set("guard.downgrades", float64(downgrades), len(lr.results))
	r.set("adapt.switches", float64(switches), len(lr.results))
	r.set("adapt.mean_input_px", mean(inputPx), len(inputPx))
	serveLayers(r, lr)
	obsLayers(r, lr.reg, lr.cpu)
	r.set("sim.detections", 0, 0)
	r.set("sim.tracked_frames", 0, 0)
	r.set("sim.remainder_ms_per_frame", 0, 0)
	r.set("sim.stage_sum_error", 0, 0)
	r.set("trace.cpu_ms_per_frame", ms(lr.cpu)/float64(frames), frames)
	return writeSpans(c, spans)
}

// serveLayers reads the slot histograms from the registry and the pool's
// stage counters from serve.RunResult.Stats.
func serveLayers(r *report, lr *liveRun) {
	snap := lr.reg.Snapshot()
	for _, h := range []struct{ metric, name string }{
		{obs.MetricSlotWait, "serve.slot_wait_ms"}, {obs.MetricSlotExec, "serve.slot_exec_ms"},
	} {
		var sum float64
		var n int64
		for _, p := range snap.Histograms {
			if p.Name == h.metric {
				sum += float64(p.Sum)
				n += p.Count
			}
		}
		r.set(h.name, sum*1000/float64(max(n, 1)), int(n))
	}
	var s serve.StatsSnapshot
	if lr.stats != nil {
		s = *lr.stats
	}
	r.set("serve.batch_fill", s.MeanBatchFill(), int(s.Batches))
	r.set("serve.grants", float64(s.Granted), 1)
	r.set("serve.batches", float64(s.Batches), 1)
	r.set("serve.refused", float64(s.Refused), 1)
	r.set("serve.cancelled", float64(s.Cancelled), 1)
}

// obsLayers reports the registry's update count and the cost of one
// labelled lookup+observe, timed after the run with the run's own label
// sets; obs.cpu_share is that cost times the updates over the run's CPU.
func obsLayers(r *report, reg *obs.Registry, cpu time.Duration) {
	snap := reg.Snapshot()
	var updates int64
	for _, p := range snap.Counters {
		updates += p.Value
	}
	for _, p := range snap.Histograms {
		updates += p.Count
	}
	var nsPer, allocsPer float64
	if len(snap.Histograms) > 0 {
		const ops = 20000
		rounds := max(ops/len(snap.Histograms), 1)
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for k := 0; k < rounds; k++ {
			for _, p := range snap.Histograms {
				reg.Histogram(p.Name, p.Bounds, p.Labels...).Observe(0.001)
			}
		}
		el := time.Since(t0)
		runtime.ReadMemStats(&m1)
		n := float64(rounds * len(snap.Histograms))
		nsPer = float64(el.Nanoseconds()) / n
		allocsPer = float64(m1.Mallocs-m0.Mallocs) / n
	}
	r.set("obs.updates", float64(updates), len(snap.Counters)+len(snap.Histograms))
	r.set("obs.observe_ns", nsPer, len(snap.Histograms))
	r.set("obs.observe_allocs", allocsPer, len(snap.Histograms))
	r.set("obs.cpu_share", float64(updates)*nsPer/float64(max(cpu.Nanoseconds(), 1)), int(updates))
}

package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"adavp/internal/core"
	"adavp/internal/detect"
	"adavp/internal/sim"
	"adavp/internal/track"
	"adavp/internal/video"
)

// offlineKinds are the scenarios of one offline-pixel pass, run back to back.
var offlineKinds = []video.Kind{video.KindHighway, video.KindCityStreet, video.KindWildlife}

const (
	// offlineFrames is the length of each offline video (320×180, 30 FPS).
	offlineFrames = 300
	// offlineClip seeds the offline scenes and runs. offline-pixel is a batch
	// job with a fixed amount of work: every seed runs the same inputs (the
	// seed only rotates the scenario order), so its outputs are checked
	// byte for byte against the committed reference.
	offlineClip = 1
	// stageSumTolerance bounds |Σ parts / total − 1| on offline-pixel.
	stageSumTolerance = 0.10
)

// offlineVideos generates the offline inputs the way adavp.GenerateVideo
// does (the scenario preset at 320×180), starting the scenario rotation at
// seed mod the scenario count.
func offlineVideos(seed uint64) []*video.Video {
	vs := make([]*video.Video, len(offlineKinds))
	for i := range vs {
		k := offlineKinds[(int(seed%uint64(len(offlineKinds)))+i)%len(offlineKinds)]
		vs[i] = video.GenerateKind(fmt.Sprintf("%s-%d", k, offlineClip), k, offlineClip, offlineFrames)
	}
	return vs
}

// offlineConfig is the sim.Config adavp.Run builds in pixel mode, with the
// detector and tracker wrapped by in (bare when in is nil).
func offlineConfig(in *instrument, stream int) sim.Config {
	return sim.Config{
		Policy:     sim.PolicyAdaVP,
		Seed:       offlineClip,
		PixelMode:  true,
		Detector:   in.detector(stream, detect.NewBlobDetector()),
		NewTracker: func(uint64) track.Tracker { return in.tracker(stream, track.NewPixelTracker()) },
	}
}

// pass is one back-to-back run of sim.Run over the offline videos.
type pass struct {
	in      *instrument
	results []*sim.Result
	hashes  []string
	walls   []time.Duration
	cpu     time.Duration
	// render is the time the pass's renders take, timed right after a
	// traced pass (renders happen inside sim, out of the hooks' reach).
	render time.Duration
}

func (p *pass) wall() time.Duration {
	var d time.Duration
	for _, w := range p.walls {
		d += w
	}
	return d
}

// runPass runs every video once through sim.Run under in.
func runPass(vs []*video.Video, in *instrument) (*pass, error) {
	p := &pass{in: in}
	cfgs := make([]sim.Config, len(vs))
	for i := range vs {
		cfgs[i] = offlineConfig(in, i)
	}
	cpu0 := cpuTime()
	if in != nil && in.tr != nil {
		in.tr.base = time.Now()
	}
	for i, v := range vs {
		t0 := time.Now()
		if in != nil && in.hooks != nil {
			in.hooks[i].base = t0
		}
		res, err := sim.Run(v, cfgs[i])
		p.walls = append(p.walls, time.Since(t0))
		if err != nil {
			return nil, fmt.Errorf("sim.Run %s: %w", v.Name, err)
		}
		p.results = append(p.results, res)
		p.hashes = append(p.hashes, outputsHash(res.Run.Outputs))
	}
	p.cpu = cpuTime() - cpu0
	return p, nil
}

// outputsHash is a SHA-256 over every displayed output, floats by their bits.
func outputsHash(outs []core.FrameOutput) string {
	h := sha256.New()
	var b []byte
	for _, o := range outs {
		b = b[:0]
		b = binary.LittleEndian.AppendUint64(b, uint64(o.FrameIndex))
		b = append(b, byte(o.Source), byte(o.Setting))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(o.Detections)))
		for _, d := range o.Detections {
			b = append(b, byte(d.Class))
			for _, f := range [...]float64{d.Box.Left, d.Box.Top, d.Box.W, d.Box.H, d.Score} {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
			}
			b = binary.LittleEndian.AppendUint64(b, uint64(d.TrackID))
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sourceCounts counts detector- and tracker-sourced outputs.
func sourceCounts(outs []core.FrameOutput) (dets, tracked int) {
	for _, o := range outs {
		switch o.Source {
		case core.SourceDetector:
			dets++
		case core.SourceTracker:
			tracked++
		}
	}
	return dets, tracked
}

func runOfflinePixel(c config, r *report) error {
	var vs []*video.Video
	setup, n := setupTimes(5, func() {
		vs = offlineVideos(c.seed)
		warmPixel(vs[0])
	})
	r.set("setup_s", setup, n)
	r.Notes["frames_per_video"] = offlineFrames
	names := make([]string, len(vs))
	for i, v := range vs {
		names[i] = v.Name
	}
	r.Notes["videos"] = names
	frames := len(vs) * offlineFrames

	// A replay of the recorded calls times sim's own work for the stage sum;
	// the recording pass is the bare run, also checked against the reference.
	var rec []*recording
	var bare *pass
	if c.traced {
		var err error
		if bare, rec, err = recordPass(vs); err != nil {
			return err
		}
	}

	startPeakRSS(r)
	sizes := make([]int, len(vs))
	for i, v := range vs {
		sizes[i] = v.NumFrames()
	}
	var passes []*pass
	steal0, ticks0 := hostSteal()
	start := time.Now()
	for len(passes) == 0 || time.Since(start) < time.Duration(c.seconds)*time.Second {
		p, err := runPass(vs, newInstrument(c.traced, sizes))
		if err != nil {
			return err
		}
		for i, v := range rec {
			p.render += v.renderTime(vs[i])
		}
		passes = append(passes, p)
	}
	peak := peakRSSMB()
	r.Notes["host_steal_share"] = stealShare(steal0, ticks0)
	r.Notes["passes"] = len(passes)
	r.Attempted = frames * len(passes)

	// Every pass does the same deterministic work: identical outputs.
	for _, p := range passes[1:] {
		for i := range vs {
			if p.hashes[i] != passes[0].hashes[i] {
				r.Failed += vs[i].NumFrames()
				r.check("passes_identical", false, fmt.Sprintf("%s: pass outputs differ", vs[i].Name))
			}
		}
	}
	r.check("passes_identical", true, "")
	if bare != nil {
		r.check("reference_bare", matchesReference(r, bare, vs), "bare outputs differ from reference.json")
	}
	instrumented := "reference_hooked"
	if c.traced {
		instrumented = "reference_traced"
	}
	r.check(instrumented, matchesReference(r, passes[0], vs), "instrumented outputs differ from reference.json")

	if c.traced {
		return offlineLayers(c, r, vs, passes, rec)
	}
	offlineEndToEnd(r, vs, passes, peak)
	return nil
}

func offlineEndToEnd(r *report, vs []*video.Video, passes []*pass, peak float64) {
	var accs, f1s []float64
	fresh, frames := 0, 0
	for _, res := range passes[0].results {
		accs = append(accs, res.Accuracy)
		f1s = append(f1s, res.MeanF1)
		d, t := sourceCounts(res.Run.Outputs)
		fresh += d + t
		frames += len(res.Run.Outputs)
	}
	r.set("accuracy", mean(accs), len(accs))
	r.set("mean_f1", mean(f1s), len(f1s))
	r.set("fresh_share", float64(fresh)/float64(frames), frames)

	// A batch job has every frame at its start: a frame's lag runs from the
	// start of its video's sim.Run to the call that produced its output.
	var lags, gaps, fps, dps, cpf []float64
	for _, p := range passes {
		dets := 0
		for i, res := range p.results {
			h := p.in.hooks[i]
			var last int64
			for f, o := range res.Run.Outputs {
				var ret int64
				switch o.Source {
				case core.SourceDetector:
					ret = h.detRet[f].Load()
					if last > 0 {
						gaps = append(gaps, ms(time.Duration(ret-last)))
					}
					last = ret
					dets++
				case core.SourceTracker:
					ret = h.stepRet[f].Load()
				default:
					continue
				}
				lags = append(lags, ms(time.Duration(ret-1)))
			}
		}
		w := p.wall().Seconds()
		fps = append(fps, float64(frames)/w)
		dps = append(dps, float64(dets)/w)
		cpf = append(cpf, ms(p.cpu)/float64(frames))
	}
	r.set("calib_gap_p50_ms", quantile(gaps, 0.5), len(gaps))
	r.set("calib_gap_p90_ms", quantile(gaps, 0.9), len(gaps))
	r.set("result_lag_p50_ms", quantile(lags, 0.5), len(lags))
	r.set("result_lag_p99_ms", quantile(lags, 0.99), len(lags))
	r.Tails["calib_gap_p90_ms"] = "p90, nearest rank, pooled over passes"
	r.Tails["result_lag_p99_ms"] = "p99, nearest rank, pooled over passes"
	r.set("detections_per_s", median(dps), len(dps))
	r.set("cpu_ms_per_frame", median(cpf), len(cpf))
	r.set("offline_fps", median(fps), len(fps))
	r.set("max_rss_mb", peak, 1)
	// sim runs no supervisor and no slot queue: no detection can fail.
	r.set("detect_ok_share", 1, frames)
}

func offlineLayers(c config, r *report, vs []*video.Video, passes []*pass, rec []*recording) error {
	// sim's own work, timed once per video by replaying the recorded calls.
	var remainder time.Duration
	renders, consumed := 0, 0
	for i, v := range vs {
		renders += len(rec[i].calls)
		consumed += rec[i].distinctFrames()
		rem, err := rec[i].replayTime(v)
		if err != nil {
			return err
		}
		remainder += rem
	}

	var st spanStats
	var errs, cpf []float64
	var renderTotal time.Duration
	spans, liveFeat := 0, int64(0)
	for _, p := range passes {
		ps := analyze(p.in.tr.recorded())
		r.check("trace_complete", p.in.tr.dropped.Load() == 0, fmt.Sprintf("%d spans dropped", p.in.tr.dropped.Load()))
		for k := range st.count {
			st.count[k] += ps.count[k]
			st.total[k] += ps.total[k]
			st.self[k] += ps.self[k]
		}
		spans += len(p.in.tr.recorded())
		liveFeat += p.in.tr.liveFeat.Load()
		renderTotal += p.render
		errs = append(errs, (ps.selfSum()+p.render+remainder).Seconds()/p.wall().Seconds()-1)
		cpf = append(cpf, ms(p.cpu)/float64(len(vs)*offlineFrames))
	}
	st.report(r, spans, liveFeat, len(passes))
	// The passes' outputs are identical (checked above), so their counts
	// repeat exactly.
	dets, tracked := 0, 0
	for _, res := range passes[0].results {
		d, t := sourceCounts(res.Run.Outputs)
		dets += d
		tracked += t
	}

	frames := len(vs) * offlineFrames
	sumErr := median(errs)
	r.check("stage_sum", math.Abs(sumErr) <= stageSumTolerance,
		fmt.Sprintf("per-layer self times + renders + sim remainder are off the measured total by %.1f%% (tolerance %.0f%%)",
			100*sumErr, 100*stageSumTolerance))
	r.Notes["stage_sum_tolerance"] = stageSumTolerance

	var inputPx []float64
	switches := 0
	for _, res := range passes[0].results {
		switches += len(res.Run.Switches)
		for _, o := range res.Run.Outputs {
			if o.Source == core.SourceDetector {
				inputPx = append(inputPx, float64(o.Setting.InputSize()))
			}
		}
	}
	r.set("video.render_ms", ms(renderTotal)/float64(max(renders*len(passes), 1)), renders*len(passes))
	r.set("video.frames_consumed", float64(consumed), consumed)
	r.set("sim.detections", float64(dets), len(passes))
	r.set("sim.tracked_frames", float64(tracked), len(passes))
	r.set("sim.remainder_ms_per_frame", ms(remainder)/float64(frames), frames)
	r.set("sim.stage_sum_error", sumErr, len(errs))
	r.set("adapt.switches", float64(switches), len(vs))
	r.set("adapt.mean_input_px", mean(inputPx), len(inputPx))
	r.set("trace.cpu_ms_per_frame", median(cpf), len(cpf))
	// Layers this workload bypasses: no rt, serve, obs or guard.
	for _, name := range []string{
		"rt.cycles", "rt.tracked_of_buffered", "rt.detector_busy_share", "rt.tracker_busy_share",
		"rt.cpu_unattributed_share", "serve.slot_wait_ms", "serve.slot_exec_ms", "serve.batch_fill",
		"serve.grants", "serve.batches", "serve.refused", "serve.cancelled", "obs.updates",
		"obs.observe_ns", "obs.observe_allocs", "obs.cpu_share", "guard.timeouts", "guard.retries",
		"guard.downgrades",
	} {
		r.set(name, 0, 0)
	}
	return writeSpans(c, passes[0].in.tr.recorded())
}

// reference is the committed offline-pixel output record: per scenario, a
// hash of every displayed output plus accuracy and mean F1, from the bare
// (unwrapped) run. Runs under the result hooks and the traced wrappers must
// reproduce it byte for byte.
type reference struct {
	Frames int        `json:"frames"`
	Videos []refVideo `json:"videos"`
}

type refVideo struct {
	Name     string  `json:"name"`
	Hash     string  `json:"sha256"`
	Accuracy float64 `json:"accuracy"`
	MeanF1   float64 `json:"mean_f1"`
}

func referencePath() string { return filepath.Join(benchDir(), "reference.json") }

func (p *pass) record(vs []*video.Video) []refVideo {
	out := make([]refVideo, len(vs))
	for i, res := range p.results {
		out[i] = refVideo{Name: vs[i].Name, Hash: p.hashes[i], Accuracy: res.Accuracy, MeanF1: res.MeanF1}
	}
	return out
}

// matchesReference compares a pass with the committed reference by video
// name, recording each mismatch as a failure.
func matchesReference(r *report, p *pass, vs []*video.Video) bool {
	data, err := os.ReadFile(referencePath())
	var ref reference
	if err == nil {
		err = json.Unmarshal(data, &ref)
	}
	if err != nil {
		r.fail(fmt.Sprintf("reading %s: %v", referencePath(), err))
		return false
	}
	want := map[string]refVideo{}
	for _, v := range ref.Videos {
		want[v.Name] = v
	}
	ok := ref.Frames == offlineFrames
	for _, got := range p.record(vs) {
		if w := want[got.Name]; got != w {
			r.fail(fmt.Sprintf("%s: outputs %+v differ from the reference %+v", got.Name, got, w))
			ok = false
		}
	}
	return ok
}

func writeReference(path string) error {
	vs := offlineVideos(0)
	p, err := runPass(vs, nil)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(reference{Frames: offlineFrames, Videos: p.record(vs)}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// recording is the sequence of detector and tracker calls of one sim.Run,
// with their results, for replay.
type recording struct {
	calls []recCall
	pos   int
	bad   int // replayed calls that did not match the recording
}

type recCall struct {
	kind  uint8 // spanDetect, spanTrackInit or spanTrackStep
	frame int
	dets  []core.Detection
	n     int
	vel   float64
}

// recordPass runs the offline videos bare, recording every call.
func recordPass(vs []*video.Video) (*pass, []*recording, error) {
	p := &pass{}
	recs := make([]*recording, len(vs))
	for i, v := range vs {
		rec := &recording{}
		cfg := offlineConfig(nil, i)
		det, newTracker := cfg.Detector, cfg.NewTracker
		cfg.Detector = &recordDetector{inner: det, rec: rec}
		cfg.NewTracker = func(s uint64) track.Tracker { return &recordTracker{inner: newTracker(s), rec: rec} }
		res, err := sim.Run(v, cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("sim.Run %s: %w", v.Name, err)
		}
		p.results = append(p.results, res)
		p.hashes = append(p.hashes, outputsHash(res.Run.Outputs))
		recs[i] = rec
	}
	return p, recs, nil
}

// renderTime times one render of every distinct frame the calls consumed
// and returns the total over all calls: each call is handed its own render.
func (rec *recording) renderTime(v *video.Video) time.Duration {
	per := map[int]time.Duration{}
	var total time.Duration
	for _, c := range rec.calls {
		d, ok := per[c.frame]
		if !ok {
			t0 := time.Now()
			v.FrameWithPixels(c.frame)
			d = time.Since(t0)
			per[c.frame] = d
		}
		total += d
	}
	return total
}

// distinctFrames counts the frames the calls consumed.
func (rec *recording) distinctFrames() int {
	seen := map[int]bool{}
	for _, c := range rec.calls {
		seen[c.frame] = true
	}
	return len(seen)
}

// config is the sim.Config of a replay: the recorded results stand in for
// the detector and tracker, and nothing is rendered.
func (rec *recording) config() sim.Config {
	return sim.Config{
		Policy:     sim.PolicyAdaVP,
		Seed:       offlineClip,
		Detector:   &replayDetector{rec},
		NewTracker: func(uint64) track.Tracker { return &replayTracker{rec} },
	}
}

// replayTime runs the replay — sim's own work alone — and returns the
// median of three runs.
func (rec *recording) replayTime(v *video.Video) (time.Duration, error) {
	ds := make([]float64, 3)
	for k := range ds {
		rec.pos, rec.bad = 0, 0
		t0 := time.Now()
		if _, err := sim.Run(v, rec.config()); err != nil {
			return 0, fmt.Errorf("replay %s: %w", v.Name, err)
		}
		ds[k] = float64(time.Since(t0))
		if rec.bad > 0 || rec.pos != len(rec.calls) {
			return 0, fmt.Errorf("replay %s diverged from the recording (%d mismatched calls, %d of %d replayed)",
				v.Name, rec.bad, rec.pos, len(rec.calls))
		}
	}
	return time.Duration(median(ds)), nil
}

func (rec *recording) next(kind uint8, frame int) recCall {
	if rec.pos >= len(rec.calls) || rec.calls[rec.pos].kind != kind || rec.calls[rec.pos].frame != frame {
		rec.bad++
		return recCall{}
	}
	c := rec.calls[rec.pos]
	rec.pos++
	return c
}

func clone(d []core.Detection) []core.Detection { return append([]core.Detection(nil), d...) }

type recordDetector struct {
	inner detect.Detector
	rec   *recording
}

func (d *recordDetector) Detect(f core.Frame, s core.Setting) []core.Detection {
	out := d.inner.Detect(f, s)
	d.rec.calls = append(d.rec.calls, recCall{kind: spanDetect, frame: f.Index, dets: clone(out)})
	return out
}

type recordTracker struct {
	inner track.Tracker
	rec   *recording
}

func (t *recordTracker) Init(ref core.Frame, dets []core.Detection) int {
	n := t.inner.Init(ref, dets)
	t.rec.calls = append(t.rec.calls, recCall{kind: spanTrackInit, frame: ref.Index, n: n})
	return n
}

func (t *recordTracker) Step(next core.Frame) ([]core.Detection, float64) {
	dets, vel := t.inner.Step(next)
	t.rec.calls = append(t.rec.calls, recCall{kind: spanTrackStep, frame: next.Index, dets: clone(dets), vel: vel})
	return dets, vel
}

type replayDetector struct{ rec *recording }

func (d *replayDetector) Detect(f core.Frame, _ core.Setting) []core.Detection {
	return clone(d.rec.next(spanDetect, f.Index).dets)
}

type replayTracker struct{ rec *recording }

func (t *replayTracker) Init(ref core.Frame, _ []core.Detection) int {
	return t.rec.next(spanTrackInit, ref.Index).n
}

func (t *replayTracker) Step(next core.Frame) ([]core.Detection, float64) {
	c := t.rec.next(spanTrackStep, next.Index)
	return clone(c.dets), c.vel
}

// Package rt is the real-time, multithreaded implementation of the AdaVP
// pipeline — the concurrency structure of the paper's §IV-B and §V built
// with actual goroutines rather than the virtual clock of internal/sim:
//
//   - The main thread feeds camera frames into the shared frame buffer at
//     the capture rate and assembles the displayed outputs.
//   - The object detector thread repeatedly fetches the newest frame from
//     the buffer, runs the DNN (its latency is emulated by sleeping the
//     calibrated duration, scaled by Config.TimeScale), and hands the
//     results to the tracker.
//   - The object tracker thread tracks the frames accumulated between two
//     detections, honoring the tracking-frame selection scheme, and cancels
//     its remaining work after finishing the current task once the detector
//     has fetched a new frame (§IV-B's synchronization rule).
//
// Shared data (frame buffer, detection results, display outputs) is guarded
// by mutexes; cross-thread signalling uses a condition variable for frame
// arrival and a channel for detection hand-off, mirroring the paper's
// "lock + event" design. The package is exercised under the race detector.
//
// The pipeline is supervised (internal/guard): every Detect call runs in a
// goroutine with panic recovery and a watchdog deadline derived from the
// calibrated per-setting latency. On a timeout, panic or empty burst the
// run enters a degraded health state — the previous calibration stays on
// screen, the cycle retries with capped exponential backoff, and repeated
// faults escalate to a smaller/faster model setting — then recovers to
// normal after enough consecutive clean cycles. Deterministic fault
// campaigns are injected with Config.Fault (internal/fault).
package rt

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"adavp/internal/adapt"
	"adavp/internal/core"
	"adavp/internal/detect"
	"adavp/internal/fault"
	"adavp/internal/guard"
	"adavp/internal/metrics"
	"adavp/internal/obs"
	"adavp/internal/par"
	"adavp/internal/rng"
	"adavp/internal/trace"
	"adavp/internal/track"
	"adavp/internal/video"
)

// Config parameterizes a live run.
type Config struct {
	// Setting is the fixed (or initial, when Adaptation is set) DNN setting.
	// Default: Setting512.
	Setting core.Setting
	// Adaptation enables AdaVP's runtime model switching; nil runs fixed
	// MPDT.
	Adaptation *adapt.Model
	// Detector overrides the default calibrated detector.
	Detector detect.Detector
	// NewTracker overrides the default tracker factory.
	NewTracker func(seed uint64) track.Tracker
	// TimeScale scales all emulated latencies and the camera interval.
	// 1.0 is real time; 0.02 runs fifty times faster. Default: 0.02.
	TimeScale float64
	// Seed derives detector noise and latency jitter.
	Seed uint64
	// PixelMode renders frames for pixel-based detectors/trackers.
	PixelMode bool
	// Fault, when set, wraps the detector and tracker with the profile's
	// deterministic fault schedule (internal/fault, Live mode).
	Fault *fault.Profile
	// Guard tunes the supervision layer; the zero value takes the
	// documented defaults.
	Guard guard.Config
	// Workers sets the pixel-kernel worker pool size for this process
	// (0 keeps the current setting, default NumCPU). Worker count never
	// changes results, only wall time (see internal/par).
	Workers int
	// Obs, when set, receives live telemetry under the shared schema:
	// per-stage wall-clock latency histograms (detect labeled with the model
	// setting and the supervisor's health at observation time), frame/cycle/
	// switch counters, the velocity gauge, guard health and events, and
	// injected-fault counts. It is also handed to the supervisor unless
	// Guard.Obs is already set. Nil disables publishing.
	Obs *obs.Registry
	// StreamID, when non-empty, labels every published series with
	// stream=<id> and is forwarded to the detector-slot provider and the
	// guard supervisor, so N pipelines sharing one registry and one slot
	// pool stay distinguishable. Set by serve.Run.
	StreamID string
	// Slots is the detector-slot provider the detector thread acquires a
	// slot from before every inference (serve.Pool in multi-stream runs).
	// Nil runs against a dedicated always-free slot — the single-stream
	// special case (N=1, K=1).
	Slots DetectorSlots
	// PipelineDepth, when >1 in pixel mode, bounds the frames in flight of
	// the run's prefetch goroutine. In pixel mode every frame is rendered at
	// most once per run, by whichever consumer asks first; the prefetcher
	// renders ahead only frames a consumer has declared it will read — the
	// detector's predicted next fetch, then the tracker's plan — keeping at
	// most PipelineDepth of them rendered and unread (raster only — a pure
	// function of the frame index). It keeps rendering while the stream is
	// blocked elsewhere, most importantly inside Slots.Acquire, so another
	// stream's detect sleep overlaps with this stream's renders.
	// Behavior-neutral by construction: a frame the prefetcher has not
	// rendered is rendered inline, and the prefetcher never touches the slot
	// pool, so grant order is exactly as without it. Depth ≤ 1 disables.
	PipelineDepth int
}

// DetectorSlots grants shared detector slots to competing streams. The live
// implementation is serve.Pool; the interface is declared here (with
// basic-typed arguments) so the serving layer can depend on rt and not the
// other way around.
type DetectorSlots interface {
	// Acquire blocks until a detector slot is granted or ctx is cancelled.
	// stream identifies the caller; setting is the model setting it holds at
	// request time — the batch compatibility key a batching pool fuses
	// grants on (the caller's post-grant adaptation may still switch);
	// lastCalib is the pipeline time its most recent calibration completed
	// (zero before the first) — the oldest-calibration-first fairness key.
	// The returned release must be called exactly once, when the inference
	// is done. A non-ctx error is backpressure: the wait queue is full, and
	// the caller skips this detection — it keeps tracking against its
	// previous calibration and retries on a later frame, so staleness grows
	// instead of memory.
	Acquire(ctx context.Context, stream string, setting core.Setting, lastCalib time.Duration) (release func(), err error)
}

// exclusiveSlots is the nil-Slots default: a dedicated, always-free detector
// slot with zero acquisition cost.
type exclusiveSlots struct{}

func (exclusiveSlots) Acquire(ctx context.Context, _ string, _ core.Setting, _ time.Duration) (func(), error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return func() {}, nil
}

func (c Config) withDefaults() Config {
	if c.Setting == core.SettingInvalid {
		c.Setting = core.Setting512
	}
	if c.TimeScale <= 0 {
		c.TimeScale = 0.02
	}
	return c
}

// Result summarizes a live run.
type Result struct {
	Outputs  []core.FrameOutput
	FrameF1  []float64
	Accuracy float64
	MeanF1   float64
	// Cycles counts completed detection cycles; Switches counts setting
	// changes (AdaVP only).
	Cycles   int
	Switches int
	// Deferred counts detections deferred because the shared slot pool
	// refused the request (bounded-queue backpressure). A pending detection
	// refused across consecutive attempts counts once — frames, not retries.
	// Always zero without Config.Slots.
	Deferred int
	// MaxCalibAge is the longest wall-clock gap between consecutive
	// calibration completions (the first measured from run start) — the
	// live counterpart of sim.StreamOutcome.MaxCalibAge, checked against
	// serve.FairnessBound by the chaos soak.
	MaxCalibAge time.Duration
	// MaxSlotOccupancy is the longest this stream held a detector slot
	// (supervision, retries and emulated inference included) — the
	// maxOccupancy term of the fairness bound.
	MaxSlotOccupancy time.Duration
	// Health is the supervisor's final state; Faults its fault/recovery
	// counters (all zero for a clean run).
	Health guard.Health
	Faults guard.Stats
	// Events interleaves injected faults and supervision actions, in order.
	Events []trace.FaultEvent
	// Injected counts the faults the injector actually fired, keyed
	// "component:kind". Nil without a fault profile.
	Injected map[string]int
	// Partial marks a run cut short by context cancellation: Outputs and
	// the metrics cover the frames that completed before the cut.
	Partial bool
	// PrefetchedWhileWaiting counts frames whose prefetch render completed
	// while this stream was blocked in slot acquisition — the overlap the
	// serve pipeline buys. Always zero when Config.PipelineDepth ≤ 1.
	PrefetchedWhileWaiting int
}

// frameBuffer is the shared camera buffer: the camera thread publishes the
// newest captured frame index; the detector blocks until a frame newer than
// its last fetch arrives.
type frameBuffer struct {
	mu     sync.Mutex
	cond   *sync.Cond
	latest int
	closed bool
}

func newFrameBuffer() *frameBuffer {
	b := &frameBuffer{latest: -1}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// push publishes a newly captured frame.
func (b *frameBuffer) push(i int) {
	b.mu.Lock()
	if i > b.latest {
		b.latest = i
	}
	b.mu.Unlock()
	b.cond.Broadcast()
}

// close marks the end of the stream.
func (b *frameBuffer) close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.cond.Broadcast()
}

// waitNewer blocks until a frame newer than `than` is available, returning
// its index. ok is false once the stream has ended with nothing newer.
func (b *frameBuffer) waitNewer(than int) (int, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.latest <= than && !b.closed {
		b.cond.Wait()
	}
	if b.latest > than {
		return b.latest, true
	}
	return 0, false
}

// cycleWork is one detection hand-off from the detector to the tracker:
// track frames (RefFrame, EndFrame) against RefDets.
type cycleWork struct {
	RefFrame   int
	RefDets    []core.Detection
	EndFrame   int
	Setting    core.Setting
	Generation uint64
}

// Run executes the live pipeline over a video. It returns when every frame
// has been fed and all in-flight work has drained. When ctx is cancelled
// mid-run it returns the *partial* Result alongside the error, so callers
// can still evaluate the frames that did complete.
func Run(ctx context.Context, v *video.Video, cfg Config) (*Result, error) {
	p, err := newPipeline(v, cfg)
	if err != nil {
		return nil, err
	}
	return p.run(ctx)
}

// newPipeline builds the shared state of one run.
func newPipeline(v *video.Video, cfg Config) (*pipeline, error) {
	cfg = cfg.withDefaults()
	if v == nil || v.NumFrames() == 0 {
		return nil, fmt.Errorf("rt: empty video")
	}
	if cfg.Guard.Obs == nil {
		// The supervisor publishes its health gauge and fault counters into
		// the run's registry unless the caller routed it elsewhere.
		cfg.Guard.Obs = cfg.Obs
	}
	if cfg.Guard.Stream == "" {
		cfg.Guard.Stream = cfg.StreamID
	}
	if cfg.Workers > 0 {
		par.SetWorkers(cfg.Workers)
	}
	det := cfg.Detector
	if det == nil {
		det = detect.NewSimDetector(cfg.Seed, v.Params.W, v.Params.H)
	}
	var tr track.Tracker
	if cfg.NewTracker != nil {
		tr = cfg.NewTracker(cfg.Seed)
	} else {
		mt := track.NewModelTracker(cfg.Seed)
		mt.SetBounds(v.Bounds())
		tr = mt
	}
	p := &pipeline{
		v:        v,
		cfg:      cfg,
		det:      det,
		tracker:  tr,
		buffer:   newFrameBuffer(),
		selector: core.NewFrameSelector(),
		sup:      guard.New(cfg.Guard),
		outputs:  make([]core.FrameOutput, v.NumFrames()),
		work:     make(chan cycleWork, 1),
	}
	if cfg.Fault != nil {
		p.fdet = fault.NewDetector(det, *cfg.Fault, fault.Live)
		p.det = p.fdet
		p.ftrk = fault.NewTracker(tr, *cfg.Fault, fault.Live)
		p.tracker = p.ftrk
	}
	// Each thread gets its own latency model: the jitter stream is not
	// safe for concurrent use.
	root := rng.New(cfg.Seed)
	p.latDet = core.NewLatencyModel(root.DeriveString("rt-latency-detector"))
	p.latTrk = core.NewLatencyModel(root.DeriveString("rt-latency-tracker"))
	if cfg.PixelMode {
		p.frames = newFrameStore(v, cfg.PipelineDepth, &p.generation, cfg.Obs, p.obsLabels())
	}
	return p, nil
}

// pipeline holds the shared state of one live run.
type pipeline struct {
	v        *video.Video
	cfg      Config
	det      detect.Detector
	tracker  track.Tracker
	latDet   *core.LatencyModel // detector-thread latency emulation
	latTrk   *core.LatencyModel // tracker-thread latency emulation
	buffer   *frameBuffer
	selector *core.FrameSelector
	sup      *guard.Supervisor
	fdet     *fault.Detector // non-nil when a fault profile is injected
	ftrk     *fault.Tracker
	frames   *frameStore // non-nil in pixel mode
	start    time.Time   // run start, shared by the camera and the fetch predictor

	work chan cycleWork
	// generation counts detector fetches; the tracker cancels its remaining
	// tasks once the detector has moved on (§IV-B).
	generation atomic.Uint64
	// velocityBits shares the tracker's latest cycle velocity (Eq. 3) with
	// the detector thread for model adaptation.
	velocityBits atomic.Uint64

	outMu    sync.Mutex
	outputs  []core.FrameOutput
	cycles   atomic.Int64
	switches atomic.Int64
	deferred atomic.Int64

	// Written only by the detector goroutine, read by finish after wg.Wait.
	maxCalibAge time.Duration
	maxSlotOcc  time.Duration
}

// obsLabels appends stream=<id> to a series' labels in multi-stream runs.
func (p *pipeline) obsLabels(ls ...obs.Label) []obs.Label {
	if p.cfg.StreamID == "" {
		return ls
	}
	return append(ls, obs.L("stream", p.cfg.StreamID))
}

// frame fetches a frame (with pixels only in pixel mode, through the
// render-once store: identical bytes whoever renders it).
func (p *pipeline) frame(i int) core.Frame {
	if p.frames != nil {
		return p.frames.get(i)
	}
	return p.v.Frame(i)
}

// cameraInterval is the scaled capture interval the camera paces by.
func (p *pipeline) cameraInterval() time.Duration {
	return max(p.scaled(p.v.FrameInterval()), time.Microsecond)
}

// predictFetch predicts the frame the detector fetches when it wakes at
// wake, having just fetched frame cur: the camera's absolute pacing at the
// wake time, and at least the next frame. -1 when the stream ends first.
func (p *pipeline) predictFetch(cur int, wake time.Time) int {
	last := p.v.NumFrames() - 1
	if cur >= last {
		return -1
	}
	return min(max(int(wake.Sub(p.start)/p.cameraInterval()), cur+1), last)
}

// scaled maps an emulated component latency to wall time.
func (p *pipeline) scaled(d time.Duration) time.Duration {
	return time.Duration(float64(d) * p.cfg.TimeScale)
}

// sleep emulates a component latency, scaled.
func (p *pipeline) sleep(d time.Duration) {
	if scaled := p.scaled(d); scaled > 0 {
		time.Sleep(scaled)
	}
}

// setOutput records a frame's displayed result.
func (p *pipeline) setOutput(out core.FrameOutput) {
	p.outMu.Lock()
	p.outputs[out.FrameIndex] = out
	p.outMu.Unlock()
}

func (p *pipeline) run(ctx context.Context) (*Result, error) {
	p.start = time.Now()
	var wg sync.WaitGroup
	// Camera (main-thread duty): publish frames at the scaled capture rate.
	// Pacing is absolute (frame index derived from wall time elapsed since
	// p.start) so coarse OS timer resolution cannot skew the frame rate
	// relative to the scaled component latencies, and the detector can
	// predict which frame it will fetch (predictFetch).
	wg.Add(1)
	//adavp:stage camera
	go func() {
		defer wg.Done()
		defer p.buffer.close()
		interval := p.cameraInterval()
		ticker := time.NewTicker(maxDur(interval, 200*time.Microsecond))
		defer ticker.Stop()
		// Capture starts with frame 0, however late this goroutine is
		// scheduled after p.start.
		for due := 0; ; due = min(int(time.Since(p.start)/interval), p.v.NumFrames()-1) {
			p.buffer.push(due)
			if due >= p.v.NumFrames()-1 {
				return
			}
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
			}
		}
	}()

	// Frame-prefetch stage: renders the frames the detector and tracker
	// declare ahead of them, so slot-wait and detect-sleep time is spent
	// building rasters. It exits when both consumers have (store close).
	var prefetchDone sync.WaitGroup
	if p.frames.prefetching() {
		prefetchDone.Add(1)
		//adavp:stage prefetch
		go func() {
			defer prefetchDone.Done()
			p.frames.prefetch()
		}()
	}

	// Object detector thread.
	wg.Add(1)
	//adavp:stage detector
	go func() {
		defer wg.Done()
		defer close(p.work)
		p.detectorLoop(ctx)
	}()

	// Object tracker thread.
	wg.Add(1)
	//adavp:stage tracker
	go func() {
		defer wg.Done()
		p.trackerLoop(ctx)
	}()

	wg.Wait()
	if p.frames != nil {
		p.frames.close()
	}
	prefetchDone.Wait()
	res := p.finish()
	if err := ctx.Err(); err != nil {
		res.Partial = true
		return res, fmt.Errorf("rt: run cancelled: %w", err)
	}
	return res, nil
}

// detectDeadline returns the wall-clock watchdog deadline for one Detect
// call at the given setting: the calibrated budget scaled to wall time,
// floored so that near-instant emulated calls are never spuriously flagged.
func (p *pipeline) detectDeadline(s core.Setting) time.Duration {
	gcfg := p.sup.Config()
	d := time.Duration(float64(p.latDet.DetectBudget(s, gcfg.WatchdogFactor)) * p.cfg.TimeScale)
	if d < gcfg.MinDeadline {
		d = gcfg.MinDeadline
	}
	return d
}

// superviseDetect runs one detection cycle under supervision: panic
// recovery, watchdog deadline, bounded retries with backoff, and model
// downgrades on repeated faults. ok is false when every attempt failed —
// the caller then keeps the previous calibration on screen. The returned
// setting reflects any downgrade (or post-recovery restore) applied.
func (p *pipeline) superviseDetect(ctx context.Context, frameIdx int, setting core.Setting) ([]core.Detection, core.Setting, bool) {
	cycle := int(p.cycles.Load())
	gcfg := p.sup.Config()
	for attempt := 0; ; attempt++ {
		frame := p.frame(frameIdx)
		s := setting
		dets, outcome := p.sup.Call(p.detectDeadline(s), func(callCtx context.Context) []core.Detection {
			// callCtx is the watchdog's abandonment signal for this one call,
			// distinct from the run-level ctx.
			return detect.DetectWith(callCtx, p.det, frame, s)
		})
		at := time.Since(p.start)
		if outcome == guard.OK {
			dets = detect.Sanitize(dets)
			recovered := p.sup.ObserveSuccess(len(dets) == 0, cycle, frameIdx, at)
			if recovered && p.cfg.Adaptation == nil {
				// Fixed-setting runs return to the configured model once
				// healthy; adaptive runs let the adaptation module climb
				// back on its own.
				setting = p.cfg.Setting
			}
			return dets, setting, true
		}
		dec := p.sup.ObserveFault(guard.ComponentDetector, outcome, cycle, frameIdx, at)
		if dec.Downgrade {
			// Check applicability before spending shared escalation budget:
			// at the smallest setting there is nothing to downgrade to, and a
			// stream saturated at 320 must not burn grants other streams
			// could still use (nor may the index ever walk below 320).
			if smaller, ok := core.NextSmaller(setting); ok && p.sup.AllowDowngrade(at) {
				p.sup.NoteDowngrade(cycle, frameIdx, at, setting.String(), smaller.String())
				setting = smaller
			}
		}
		if attempt >= gcfg.MaxRetries || ctx.Err() != nil {
			return nil, setting, false
		}
		p.sup.NoteRetry(cycle, frameIdx, at)
		if !sleepCtx(ctx, dec.Backoff) {
			return nil, setting, false
		}
	}
}

// detectorLoop is the GPU thread, written as a slot-requesting client: fetch
// newest frame, acquire a detector slot (the nil-Slots default grants
// instantly, making single-stream the N=1, K=1 special case), adapt the
// setting, detect (supervised), release the slot, hand off to the tracker.
//
//adavp:stage detector
func (p *pipeline) detectorLoop(ctx context.Context) {
	setting := p.cfg.Setting
	prevFrame := -1
	// lastFetched is the wait cursor: it advances on every fetch, granted or
	// refused, so a refused bootstrap fetch (prevFrame still -1) waits for the
	// NEXT captured frame instead of spinning on — and re-counting — the same
	// one.
	lastFetched := -1
	// deferring marks a refusal streak already counted: consecutive refused
	// attempts defer one pending detection, and the deferred counter counts
	// the detection once, not once per retry.
	deferring := false
	var prevDets []core.Detection
	var lastCalib time.Duration
	slots := p.cfg.Slots
	if slots == nil {
		slots = exclusiveSlots{}
	}
	for ctx.Err() == nil {
		frameIdx, ok := p.buffer.waitNewer(lastFetched)
		if !ok {
			return
		}
		lastFetched = frameIdx

		// Claim a shared detector slot before committing to the cycle. The
		// wait is measured here — the slot pool itself is clock-free. The
		// prefetch stage keeps rendering through this block: the waiting
		// bracket is what attributes its completions to the queueing window.
		slotStart := time.Now()
		p.frames.setWaiting(true)
		release, err := slots.Acquire(ctx, p.cfg.StreamID, setting, lastCalib)
		p.frames.setWaiting(false)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			// Backpressure: the pool's wait queue is full. Skip this
			// detection — hand the buffered frames to the tracker so it keeps
			// extrapolating against the previous calibration — and re-request
			// at the next captured frame. Staleness grows; memory does not.
			if !deferring {
				deferring = true
				p.deferred.Add(1)
				p.cfg.Obs.Counter(obs.MetricDetectDeferred, p.obsLabels()...).Inc()
			}
			if prevFrame >= 0 {
				gen := p.generation.Add(1)
				select {
				case p.work <- cycleWork{RefFrame: prevFrame, RefDets: prevDets, EndFrame: frameIdx, Setting: setting, Generation: gen}:
				case <-ctx.Done():
					return
				}
				prevFrame = frameIdx
			}
			continue
		}
		deferring = false
		p.cfg.Obs.Histogram(obs.MetricSlotWait, obs.DefLatencyBuckets, p.obsLabels()...).
			ObserveDuration(time.Since(slotStart))
		// Occupancy runs from the grant to the release: setting-switch
		// overhead plus supervised detection, same definition as sim's
		// StreamOutcome.MaxOccupancy.
		slotGranted := time.Now()
		// Frames kept arriving while we queued for the slot: detect the
		// newest one, not the one that triggered the request.
		if newest, stillOpen := p.buffer.waitNewer(frameIdx - 1); stillOpen && newest > frameIdx {
			frameIdx = newest
		}
		// Fetching a new frame tells the tracker to wind down (§IV-B).
		gen := p.generation.Add(1)

		// Model adaptation: the velocity measured during the previous cycle
		// picks this cycle's setting.
		if p.cfg.Adaptation != nil && prevFrame >= 0 {
			if bits := p.velocityBits.Load(); bits != 0 {
				vel := float64FromBits(bits)
				if track.ValidVelocity(vel) {
					if next := p.cfg.Adaptation.Next(setting, vel); next != setting {
						swStart := time.Now()
						p.sleep(p.latDet.SettingSwitch())
						p.switches.Add(1)
						adapt.PublishDecision(p.cfg.Obs, setting, next, vel, time.Since(swStart), time.Since(p.start), p.obsLabels()...)
						setting = next
					} else {
						adapt.PublishDecision(p.cfg.Obs, setting, next, vel, 0, time.Since(p.start), p.obsLabels()...)
					}
				}
			}
		}

		// Hand the accumulated frames to the tracker before starting the
		// new inference, so both work in parallel.
		if prevFrame >= 0 {
			select {
			case p.work <- cycleWork{RefFrame: prevFrame, RefDets: prevDets, EndFrame: frameIdx, Setting: setting, Generation: gen}:
			case <-ctx.Done():
				release()
				return
			}
		}

		detStart := time.Now()
		dets, newSetting, detected := p.superviseDetect(ctx, frameIdx, setting)
		setting = newSetting
		// Declare the frame the camera will have published when the
		// emulated inference ends, so the prefetcher renders it during the
		// sleep (a miss is rendered inline at the next fetch).
		detSleep := p.latDet.Detect(setting)
		wake := time.Now().Add(p.scaled(detSleep))
		p.frames.expectDetect(p.predictFetch(frameIdx, wake), wake)
		p.sleep(detSleep)
		occ := time.Since(slotGranted)
		if occ > p.maxSlotOcc {
			p.maxSlotOcc = occ
		}
		release()
		// Execution time (grant → release) is the other half of the
		// queueing/execution split: MetricSlotWait above measured the queue,
		// this histogram measures the slot itself.
		p.cfg.Obs.Histogram(obs.MetricSlotExec, obs.DefLatencyBuckets, p.obsLabels()...).
			ObserveDuration(occ)
		newCalib := time.Since(p.start)
		if age := newCalib - lastCalib; age > p.maxCalibAge {
			p.maxCalibAge = age
		}
		lastCalib = newCalib
		// The detect observation spans supervision (including retries and
		// backoff) plus the emulated inference itself, labeled with the
		// setting that ended the cycle and the health it left behind.
		p.cfg.Obs.StageHistogram(obs.StageDetect, p.obsLabels(
			obs.L("setting", setting.String()),
			obs.L("health", p.sup.Health().String()),
		)...).ObserveDuration(time.Since(detStart))
		if detected {
			p.setOutput(core.FrameOutput{FrameIndex: frameIdx, Source: core.SourceDetector, Setting: setting, Detections: dets})
			prevDets = dets
		} else {
			// Every attempt faulted: hold the previous calibration on
			// screen and keep tracking against it.
			p.setOutput(core.FrameOutput{FrameIndex: frameIdx, Source: core.SourceHeld, Setting: setting, Detections: prevDets})
		}
		p.cycles.Add(1)
		p.cfg.Obs.Counter(obs.MetricCycles, p.obsLabels()...).Inc()
		prevFrame = frameIdx
		if frameIdx > lastFetched {
			lastFetched = frameIdx
		}
	}
}

// trackerLoop is the CPU thread: process each cycle's buffered frames under
// panic supervision, validating every velocity sample before it can reach
// the adaptation model.
//
//adavp:stage tracker
func (p *pipeline) trackerLoop(ctx context.Context) {
	for w := range p.work {
		if ctx.Err() != nil {
			return
		}
		buffered := w.EndFrame - 1 - w.RefFrame
		// The plan is fixed before Init so the prefetcher can render the
		// first tracked frames while Init runs.
		var plan []int
		if buffered > 0 {
			plan = p.selector.Plan(buffered)
		}
		p.frames.startCycle(w.Generation, w.RefFrame, plan)
		if buffered <= 0 {
			continue
		}
		feStart := time.Now()
		if !p.safeTrackInit(p.frame(w.RefFrame), w.RefDets) {
			continue
		}
		p.sleep(p.latTrk.FeatureExtract())
		// Feature extraction is CPU-track work, same as in the simulator's
		// busy log.
		p.cfg.Obs.StageHistogram(obs.StageTrack, p.obsLabels()...).ObserveDuration(time.Since(feStart))

		tracked := 0
		var velSum float64
		var velN int
		cur := w.RefDets
		for k, idx := range plan {
			frameIdx := w.RefFrame + 1 + idx
			p.frames.stepping(k, frameIdx)
			// §IV-B: cancel after the current task once the detector has
			// fetched a newer frame.
			if p.generation.Load() > w.Generation {
				break
			}
			stepStart := time.Now()
			dets, vel, ok := p.safeTrackStep(p.frame(frameIdx))
			if !ok {
				// The tracker panicked mid-cycle: hold the last good boxes
				// for this frame and abandon the rest of the cycle — the
				// next detection re-initializes the tracker from scratch.
				p.setOutput(core.FrameOutput{FrameIndex: frameIdx, Source: core.SourceHeld, Setting: w.Setting, Detections: cur})
				tracked++
				break
			}
			dets = detect.Sanitize(dets)
			p.sleep(p.latTrk.TrackFrame(len(cur)))
			p.cfg.Obs.StageHistogram(obs.StageTrack, p.obsLabels()...).ObserveDuration(time.Since(stepStart))
			ovStart := time.Now()
			p.sleep(p.latTrk.Overlay())
			p.setOutput(core.FrameOutput{FrameIndex: frameIdx, Source: core.SourceTracker, Setting: w.Setting, Detections: dets})
			p.cfg.Obs.StageHistogram(obs.StageOverlay, p.obsLabels()...).ObserveDuration(time.Since(ovStart))
			cur = dets
			tracked++
			if track.ValidVelocity(vel) {
				velSum += vel
				velN++
			}
		}
		p.selector.Update(tracked, buffered)
		if velN > 0 {
			if m := velSum / float64(velN); track.ValidVelocity(m) {
				p.velocityBits.Store(float64ToBits(m))
			}
		}
	}
}

// safeTrackInit calls Tracker.Init with panic recovery.
func (p *pipeline) safeTrackInit(f core.Frame, dets []core.Detection) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			p.sup.ObserveFault(guard.ComponentTracker, guard.Panicked, int(p.cycles.Load()), f.Index, time.Since(p.start))
			ok = false
		}
	}()
	p.tracker.Init(f, dets)
	return true
}

// safeTrackStep calls Tracker.Step with panic recovery.
func (p *pipeline) safeTrackStep(f core.Frame) (dets []core.Detection, vel float64, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			p.sup.ObserveFault(guard.ComponentTracker, guard.Panicked, int(p.cycles.Load()), f.Index, time.Since(p.start))
			dets, vel, ok = nil, 0, false
		}
	}()
	dets, vel = p.tracker.Step(f)
	return dets, vel, true
}

// finish hold-fills unprocessed frames and evaluates the run.
func (p *pipeline) finish() *Result {
	n := p.v.NumFrames()
	res := &Result{
		Outputs:          p.outputs,
		FrameF1:          make([]float64, n),
		Cycles:           int(p.cycles.Load()),
		Switches:         int(p.switches.Load()),
		Deferred:         int(p.deferred.Load()),
		MaxCalibAge:      p.maxCalibAge,
		MaxSlotOccupancy: p.maxSlotOcc,
		Health:           p.sup.Health(),
		Faults:           p.sup.Stats(),
		Events:           p.sup.Events(),
	}
	if p.frames != nil {
		res.PrefetchedWhileWaiting = int(p.frames.builtWhile.Load())
	}
	if p.fdet != nil {
		res.Injected = make(map[string]int)
		for _, src := range []struct {
			comp   string
			counts map[fault.Kind]int
			events []fault.Event
		}{
			{"detector", p.fdet.Counts(), p.fdet.Events()},
			{"tracker", p.ftrk.Counts(), p.ftrk.Events()},
		} {
			for k, c := range src.counts {
				res.Injected[src.comp+":"+k.String()] = c
			}
			for _, ev := range src.events {
				res.Events = append(res.Events, trace.FaultEvent{
					Component: ev.Component, Kind: ev.Kind.String(),
					Action: "injected", Cycle: ev.Call,
				})
				p.cfg.Obs.Counter(obs.MetricFaultsInjected,
					p.obsLabels(obs.L("component", ev.Component), obs.L("kind", ev.Kind.String()))...).Inc()
				component := ev.Component
				if p.cfg.StreamID != "" {
					component += "@" + p.cfg.StreamID
				}
				p.cfg.Obs.Record(time.Since(p.start), component, ev.Kind.String(), "injected")
			}
		}
	}
	var last core.FrameOutput
	haveLast := false
	for i := 0; i < n; i++ {
		if p.outputs[i].Source == core.SourceNone {
			if haveLast {
				p.outputs[i] = core.FrameOutput{
					FrameIndex: i, Source: core.SourceHeld,
					Setting: last.Setting, Detections: last.Detections,
				}
			} else {
				p.outputs[i] = core.FrameOutput{FrameIndex: i, Source: core.SourceNone}
			}
		} else {
			p.outputs[i].FrameIndex = i
			last = p.outputs[i]
			haveLast = true
		}
		if src := p.outputs[i].Source; src != core.SourceNone {
			p.cfg.Obs.Counter(obs.MetricFrames, p.obsLabels(obs.L("source", src.String()))...).Inc()
		}
		res.FrameF1[i] = metrics.FrameF1(p.outputs[i].Detections, p.v.Truth(i), metrics.DefaultIoU)
	}
	res.Accuracy = metrics.VideoAccuracy(res.FrameF1, metrics.DefaultAlpha)
	res.MeanF1 = metrics.Mean(res.FrameF1)
	return res
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// sleepCtx sleeps for d or until ctx is cancelled, reporting whether the
// full duration elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// float bit helpers for the atomic velocity cell.
func float64ToBits(f float64) uint64   { return math.Float64bits(f) }
func float64FromBits(b uint64) float64 { return math.Float64frombits(b) }

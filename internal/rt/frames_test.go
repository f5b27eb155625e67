package rt

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adavp/internal/adapt"
	"adavp/internal/detect"
	"adavp/internal/fault"
	"adavp/internal/imgproc"
	"adavp/internal/track"
	"adavp/internal/video"
)

// pixelConfig is a pixel-mode rt.Run configuration at the given prefetch
// depth: blob detector, pixel tracker. The time scale keeps the camera
// interval (8 ms) well above scheduling noise, so the detector's fetch
// predictions mostly hit.
func pixelConfig(depth int) Config {
	return Config{
		TimeScale:     0.25,
		Seed:          3,
		PixelMode:     true,
		PipelineDepth: depth,
		Detector:      detect.NewBlobDetector(),
		NewTracker:    func(uint64) track.Tracker { return track.NewPixelTracker() },
	}
}

// TestFrameStoreSingleFlight: goroutines asking for the same frame at once
// trigger exactly one render and all receive the same raster.
func TestFrameStoreSingleFlight(t *testing.T) {
	v := video.GenerateKind("sf", video.KindHighway, 1, 8)
	s := newFrameStore(v, 1, new(atomic.Uint64), nil, nil)
	const n = 16
	got := make([]*imgproc.Gray, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[g] = s.get(5).Pixels
		}()
	}
	close(start)
	wg.Wait()
	if s.renders[5] != 1 {
		t.Fatalf("frame 5 rendered %d times by %d concurrent readers, want 1", s.renders[5], n)
	}
	for g, px := range got {
		if px == nil || px != got[0] {
			t.Fatalf("reader %d got raster %p, reader 0 got %p", g, px, got[0])
		}
	}
	if s.consumed != 1 || s.resident != 1 {
		t.Errorf("consumed %d, resident %d after one frame, want 1, 1", s.consumed, s.resident)
	}
}

// TestRunRendersEachFrameOnce is the render-once invariant of pixel rt.Run
// at depths 1-3, adaptive, with and without an injected fault schedule:
//
//   - no frame index is rendered twice;
//   - the store never holds more than depth+6 frames: the tracker's current
//     frame, up to depth−1 plan frames ahead of it, the two detector
//     fetches the tracker has not passed (the detector renders its frame
//     only after handing the previous cycle to the tracker), and one
//     mispredicted fetch for each of the at most four detector cycles whose
//     prediction can lie ahead of the tracker;
//   - renders exceed the frames consumers read by at most one per detection
//     cycle: the prefetcher renders only declared frames, so its waste is a
//     mispredicted detector fetch (one prediction per cycle) or a plan frame
//     for a step the detector cancelled (which the wake-time gate keeps
//     rare).
func TestRunRendersEachFrameOnce(t *testing.T) {
	v := video.GenerateKind("once", video.KindCityStreet, 7, 96)
	profiles := []*fault.Profile{
		nil,
		{Rate: 0.15, Kinds: []fault.Kind{fault.KindEmpty, fault.KindPanic}, Seed: 2},
	}
	for _, prof := range profiles {
		for _, depth := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("depth%d/faults=%v", depth, prof != nil), func(t *testing.T) {
				cfg := pixelConfig(depth)
				cfg.Adaptation = adapt.DefaultModel()
				cfg.Fault = prof
				p, err := newPipeline(v, cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := p.run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				s := p.frames
				total := 0
				for i, n := range s.renders {
					if n > 1 {
						t.Errorf("frame %d rendered %d times", i, n)
					}
					total += int(n)
				}
				if s.maxResident > depth+6 {
					t.Errorf("store held %d frames at once, want ≤ %d", s.maxResident, depth+6)
				}
				if total > s.consumed+res.Cycles {
					t.Errorf("%d renders for %d consumed frames over %d cycles", total, s.consumed, res.Cycles)
				}
				if depth == 1 && total != s.consumed {
					t.Errorf("depth 1 rendered %d frames but consumed %d: without a prefetcher nothing is rendered unread", total, s.consumed)
				}
				if res.Cycles < 2 {
					t.Errorf("only %d detection cycles: the invariants are vacuous", res.Cycles)
				}
			})
		}
	}
}

// TestRunPixelLeaksNoGoroutines is TestRunLeaksNoGoroutines for pixel mode
// with the prefetch goroutine running: it must exit on mid-run
// cancellation and on normal completion alike.
func TestRunPixelLeaksNoGoroutines(t *testing.T) {
	v := video.GenerateKind("hw", video.KindHighway, 5, 60)
	base := runtime.NumGoroutine()
	for _, depth := range []int{2, 3} {
		for _, after := range []time.Duration{5, 40} {
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(after*time.Millisecond, cancel)
			_, _ = Run(ctx, v, pixelConfig(depth))
			cancel()
			requireBaselineGoroutines(t, base)
		}
		if _, err := Run(context.Background(), v, pixelConfig(depth)); err != nil {
			t.Fatal(err)
		}
		requireBaselineGoroutines(t, base)
	}
}

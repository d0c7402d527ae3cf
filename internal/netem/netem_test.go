package netem

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"iqb/internal/geo"
	"iqb/internal/rng"
	"iqb/internal/units"
)

func TestTechStrings(t *testing.T) {
	seen := map[string]Tech{}
	for _, tech := range AllTechs() {
		if tech.String() == "" {
			t.Errorf("tech %d has empty name", int(tech))
		}
		if prev, dup := seen[tech.String()]; dup {
			t.Errorf("techs %d and %d share the name %q", int(prev), int(tech), tech.String())
		}
		seen[tech.String()] = tech
	}
	if Tech(99).String() == "" {
		t.Error("unknown tech should still format")
	}
}

func TestDefaultProfilesComplete(t *testing.T) {
	profiles := DefaultProfiles()
	for _, tech := range AllTechs() {
		p, ok := profiles[tech]
		if !ok {
			t.Errorf("no profile for %v", tech)
			continue
		}
		if p.Tech != tech {
			t.Errorf("profile %v mislabeled as %v", tech, p.Tech)
		}
		if p.DownMbps <= 0 || p.UpMbps <= 0 || p.BaseRTTms <= 0 {
			t.Errorf("profile %v has non-positive parameters: %+v", tech, p)
		}
		if !p.RandomLoss.Valid() {
			t.Errorf("profile %v has invalid loss", tech)
		}
	}
	// Sanity ordering: fiber beats satellite on latency, satellite has
	// the highest base RTT of all.
	if profiles[Fiber].BaseRTTms >= profiles[SatGEO].BaseRTTms {
		t.Error("fiber should have lower base RTT than satellite")
	}
	for _, tech := range AllTechs() {
		if tech != SatGEO && profiles[tech].BaseRTTms >= profiles[SatGEO].BaseRTTms {
			t.Errorf("%v base RTT >= satellite", tech)
		}
	}
}

func TestDefaultMixes(t *testing.T) {
	for _, c := range []geo.Character{geo.Urban, geo.Suburban, geo.Rural} {
		mix := DefaultMixFor(c)
		if err := mix.Validate(); err != nil {
			t.Errorf("%v mix invalid: %v", c, err)
		}
	}
	urban, rural := DefaultMixFor(geo.Urban), DefaultMixFor(geo.Rural)
	if urban[Fiber] <= rural[Fiber] {
		t.Error("urban should have more fiber than rural")
	}
	if rural[SatGEO] <= urban[SatGEO] {
		t.Error("rural should have more satellite than urban")
	}
}

func TestTechMixValidate(t *testing.T) {
	if err := (TechMix{Fiber: 0.5}).Validate(); err == nil {
		t.Error("underweight mix should be invalid")
	}
	if err := (TechMix{Fiber: 1.2, Cable: -0.2}).Validate(); err == nil {
		t.Error("negative weight should be invalid")
	}
}

func TestTechMixDraw(t *testing.T) {
	src := rng.New(2)
	mix := TechMix{Fiber: 0.7, DSL: 0.3}
	counts := map[Tech]int{}
	for i := 0; i < 10000; i++ {
		counts[mix.Draw(src)]++
	}
	if counts[Cable] != 0 || counts[SatGEO] != 0 {
		t.Errorf("zero-weight techs drawn: %v", counts)
	}
	if f := float64(counts[Fiber]) / 10000; math.Abs(f-0.7) > 0.02 {
		t.Errorf("fiber rate = %v, want ~0.7", f)
	}
}

func TestDrawPathInvariants(t *testing.T) {
	src := rng.New(3)
	profiles := DefaultProfiles()
	for _, tech := range AllTechs() {
		for i := 0; i < 200; i++ {
			p := DrawPath(profiles[tech], 1, src)
			if err := p.Validate(); err != nil {
				t.Fatalf("%v draw %d invalid: %v", tech, i, err)
			}
			if p.UpMbps > p.DownMbps {
				t.Fatalf("%v path has up %v > down %v", tech, p.UpMbps, p.DownMbps)
			}
		}
	}
}

func TestDrawPathQualityMultiplier(t *testing.T) {
	prof := DefaultProfiles()[Cable]
	const n = 3000
	sumLo, sumHi := 0.0, 0.0
	srcLo, srcHi := rng.New(4), rng.New(4)
	for i := 0; i < n; i++ {
		sumLo += DrawPath(prof, 0.5, srcLo).DownMbps
		sumHi += DrawPath(prof, 1.5, srcHi).DownMbps
	}
	if sumHi <= sumLo*2 {
		t.Errorf("quality 1.5 mean %v not ~3x quality 0.5 mean %v", sumHi/n, sumLo/n)
	}
	// Non-positive quality defaults to 1 and must not panic.
	p := DrawPath(prof, -1, rng.New(5))
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
}

func TestObserveInvariants(t *testing.T) {
	src := rng.New(6)
	profiles := DefaultProfiles()
	f := func(techIdx uint8, rhoRaw uint8) bool {
		tech := AllTechs()[int(techIdx)%int(numTech)]
		rho := float64(rhoRaw) / 255 // [0,1]
		p := DrawPath(profiles[tech], 1, src)
		st := p.Observe(rho, src)
		if st.RTT < p.BaseRTT {
			return false
		}
		if !st.Loss.Valid() {
			return false
		}
		if st.AvailDown > units.Throughput(p.DownMbps) || st.AvailDown <= 0 {
			return false
		}
		if st.AvailUp > units.Throughput(p.UpMbps) || st.AvailUp <= 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestObserveLoadDegrades(t *testing.T) {
	src := rng.New(7)
	p := DrawPath(DefaultProfiles()[Cable], 1, src)
	const n = 2000
	var idleRTT, busyRTT, idleLoss, busyLoss, idleDown, busyDown float64
	for i := 0; i < n; i++ {
		a := p.Observe(0.05, src)
		b := p.Observe(0.92, src)
		idleRTT += a.RTT.Milliseconds()
		busyRTT += b.RTT.Milliseconds()
		idleLoss += float64(a.Loss)
		busyLoss += float64(b.Loss)
		idleDown += a.AvailDown.Mbps()
		busyDown += b.AvailDown.Mbps()
	}
	if busyRTT <= idleRTT*1.5 {
		t.Errorf("busy RTT %v not clearly above idle %v", busyRTT/n, idleRTT/n)
	}
	if busyLoss <= idleLoss {
		t.Errorf("busy loss %v not above idle %v", busyLoss/n, idleLoss/n)
	}
	if busyDown >= idleDown {
		t.Errorf("busy capacity %v not below idle %v", busyDown/n, idleDown/n)
	}
}

func TestObserveClampsRho(t *testing.T) {
	src := rng.New(8)
	p := DrawPath(DefaultProfiles()[DSL], 1, src)
	for _, rho := range []float64{-1, 1.5, 10} {
		st := p.Observe(rho, src)
		if !st.Loss.Valid() || st.RTT <= 0 {
			t.Errorf("rho=%v produced invalid state %+v", rho, st)
		}
		if st.RTT.Milliseconds() > 5000 {
			t.Errorf("rho=%v produced runaway RTT %v", rho, st.RTT)
		}
	}
}

func TestPathValidate(t *testing.T) {
	good := Path{DownMbps: 10, UpMbps: 5, BaseRTT: units.LatencyFromMillis(20), Loss: 0.01, Shared: 0.5}
	if err := good.Validate(); err != nil {
		t.Error(err)
	}
	bad := []Path{
		{DownMbps: 0, UpMbps: 5, BaseRTT: 1, Loss: 0, Shared: 0},
		{DownMbps: 10, UpMbps: 5, BaseRTT: 0, Loss: 0, Shared: 0},
		{DownMbps: 10, UpMbps: 5, BaseRTT: 1, Loss: 2, Shared: 0},
		{DownMbps: 10, UpMbps: 5, BaseRTT: 1, Loss: 0, Shared: 1.5},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad path %d validated", i)
		}
	}
}

func TestDiurnal(t *testing.T) {
	for h := 0.0; h < 24; h += 0.25 {
		u := Diurnal(h)
		if u < 0 || u > 0.95 {
			t.Fatalf("Diurnal(%v) = %v out of [0, 0.95]", h, u)
		}
	}
	if Diurnal(21) <= Diurnal(4) {
		t.Error("evening peak should exceed 4am trough")
	}
	if Diurnal(21) <= Diurnal(10) {
		t.Error("evening peak should exceed mid-morning")
	}
	// Wrap-around: negative hours and >24 are equivalent mod 24.
	if math.Abs(Diurnal(-3)-Diurnal(21)) > 1e-9 {
		t.Error("Diurnal(-3) should equal Diurnal(21)")
	}
	if math.Abs(Diurnal(25)-Diurnal(1)) > 1e-9 {
		t.Error("Diurnal(25) should equal Diurnal(1)")
	}
}

func TestShaperRate(t *testing.T) {
	sh, err := NewShaper(80 * units.Mbps) // 10 MB/s
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(0, 0)
	var wait time.Duration
	total := 0
	// Drain the burst, then reserve 10 MB; the cumulative wait should be
	// about one second.
	for total < 10_000_000 {
		d := sh.Reserve(100_000, now.Add(wait))
		wait += d
		total += 100_000
	}
	if wait < 900*time.Millisecond || wait > 1100*time.Millisecond {
		t.Errorf("10MB at 10MB/s took %v, want ~1s", wait)
	}
}

func TestShaperBurst(t *testing.T) {
	sh, _ := NewShaper(8 * units.Mbps) // 1 MB/s, burst >= 64 KiB
	now := time.Unix(100, 0)
	if d := sh.Reserve(64<<10, now); d != 0 {
		t.Errorf("first burst-sized reserve should be free, got %v", d)
	}
	if d := sh.Reserve(1<<20, now); d <= 0 {
		t.Error("over-burst reserve should wait")
	}
}

func TestShaperRefill(t *testing.T) {
	sh, _ := NewShaper(8 * units.Mbps) // 1 MB/s
	now := time.Unix(0, 0)
	sh.Reserve(1<<20, now) // drain deep
	// After 10 seconds the bucket must be full again (but capped at burst).
	if d := sh.Reserve(32<<10, now.Add(10*time.Second)); d != 0 {
		t.Errorf("after refill, small reserve should be free, got %v", d)
	}
}

func TestShaperSetRate(t *testing.T) {
	sh, _ := NewShaper(10 * units.Mbps)
	sh.SetRate(20 * units.Mbps)
	if got := sh.Rate().Mbps(); math.Abs(got-20) > 1e-9 {
		t.Errorf("Rate = %v, want 20", got)
	}
	sh.SetRate(0) // ignored
	if got := sh.Rate().Mbps(); math.Abs(got-20) > 1e-9 {
		t.Errorf("zero SetRate should be ignored, rate = %v", got)
	}
}

func TestShaperErrors(t *testing.T) {
	if _, err := NewShaper(0); err == nil {
		t.Error("zero rate should error")
	}
	sh, _ := NewShaper(10 * units.Mbps)
	if d := sh.Reserve(0, time.Now()); d != 0 {
		t.Error("zero-byte reserve should be free")
	}
	if d := sh.Reserve(-5, time.Now()); d != 0 {
		t.Error("negative reserve should be free")
	}
}

func BenchmarkObserve(b *testing.B) {
	src := rng.New(1)
	p := DrawPath(DefaultProfiles()[Cable], 1, src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Observe(0.5, src)
	}
}

func BenchmarkShaperReserve(b *testing.B) {
	sh, _ := NewShaper(100 * units.Mbps)
	now := time.Unix(0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(time.Millisecond)
		sh.Reserve(1000, now)
	}
}

package iqb

import "testing"

func TestAllPresetsValid(t *testing.T) {
	for _, name := range []PresetName{PresetPaper, PresetBaseline, PresetRealtime, PresetRemoteWork} {
		cfg, err := Preset(name)
		if err != nil {
			t.Errorf("preset %s: %v", name, err)
			continue
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", name, err)
		}
	}
	if _, err := Preset("vibes"); err == nil {
		t.Error("unknown preset should error")
	}
}

func TestPresetPaperIsDefault(t *testing.T) {
	cfg, err := Preset(PresetPaper)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Quality != HighQuality || cfg.Percentile != 95 {
		t.Errorf("paper preset diverged: %+v", cfg.Quality)
	}
	if cfg.RequirementWeights[Gaming][Latency] != 5 {
		t.Error("paper preset must carry Table 1")
	}
}

func TestPresetBaselineUsesMinimumBar(t *testing.T) {
	cfg, err := Preset(PresetBaseline)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Quality != MinimumQuality {
		t.Error("baseline preset should use the minimum bar")
	}
}

// TestPresetsDisagreeOnGamingHeavyConnection: a connection that is great
// for gaming but poor for backup should score higher under the realtime
// preset than under remote-work.
func TestPresetsDisagreeOnGamingHeavyConnection(t *testing.T) {
	agg := NewAggregates()
	for _, d := range DefaultDatasets() {
		for _, r := range d.Capabilities {
			var v float64
			switch r {
			case Download:
				v = 60 // passes gaming (50) and conferencing (25), fails backup (100)
			case Upload:
				v = 15 // passes gaming (10) and conferencing (12), fails backup (50)
			case Latency:
				v = 20 // passes everything
			case Loss:
				v = 0.001
			}
			agg.Set(d.Name, r, v, 50)
		}
	}
	realtime, err := Preset(PresetRealtime)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := Preset(PresetRemoteWork)
	if err != nil {
		t.Fatal(err)
	}
	sRealtime, err := realtime.ScoreAggregates(agg)
	if err != nil {
		t.Fatal(err)
	}
	sRemote, err := remote.ScoreAggregates(agg)
	if err != nil {
		t.Fatal(err)
	}
	if sRealtime.IQB <= sRemote.IQB {
		t.Errorf("gaming-friendly connection: realtime %v should beat remote-work %v",
			sRealtime.IQB, sRemote.IQB)
	}
}

package experiments

import (
	"context"
	"fmt"
	"io"

	"iqb/internal/dataset"
	"iqb/internal/geo"
	"iqb/internal/iqb"
	"iqb/internal/pipeline"
	"iqb/internal/report"
	"iqb/internal/stats"
)

// ISPs (E13) is the ground-truth recovery check: the simulation assigns
// each ISP a hidden quality multiplier (its access-network investment
// level); IQB sees only the measurement records. If the framework works
// as the poster intends — "actionable insights for decision-makers" —
// the score ranking must recover the hidden quality ordering.
func ISPs(ctx context.Context, w io.Writer) error {
	spec := regionalSpec()
	// More ISPs and a wider quality spread make the recovery target
	// unambiguous.
	spec.Geo.ISPs = 5
	spec.ISPQualitySpread = 0.35
	res, err := pipeline.Run(ctx, spec)
	if err != nil {
		return err
	}
	// The minimum bar has headroom across the whole quality range; the
	// high bar saturates at 0 for rural-heavy ISPs.
	cfg := iqb.DefaultConfig()
	cfg.Quality = iqb.MinimumQuality
	ranked, err := res.RankISPs(cfg)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "E13: ISP league table — does IQB recover the simulation's hidden ISP quality?")
	fmt.Fprintln(w)
	t := report.NewTable("Rank", "ISP", "ASN", "IQB(min)", "Grade", "True quality", "").AlignRight(0, 3, 5)
	var scores, truths []float64
	for i, isp := range ranked {
		t.Row(
			fmt.Sprintf("%d", i+1),
			isp.Name,
			fmt.Sprintf("AS%d", isp.ASN),
			fmt.Sprintf("%.3f", isp.Score.IQB),
			string(isp.Score.Grade),
			fmt.Sprintf("%.2f", isp.TrueQuality),
			report.Bar(isp.Score.IQB, 20),
		)
		scores = append(scores, isp.Score.IQB)
		truths = append(truths, isp.TrueQuality)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	rho, err := stats.Spearman(scores, truths)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nraw Spearman(IQB score, hidden quality) = %.2f — the raw league table\n", rho)
	fmt.Fprintln(w, "confounds investment with footprint: an ISP serving urban fiber counties outranks")
	fmt.Fprintln(w, "a better-run ISP stuck with rural DSL subscribers.")

	// Footprint-controlled comparison: within each county, every pair of
	// competing ISPs is ordered by score and by hidden quality; the
	// concordance fraction measures recovery with geography held fixed.
	// Per-ISP-per-county cells are small, so the comparison uses the
	// median aggregation rule: tail percentiles are too noisy to rank
	// providers on a few dozen tests.
	medianCfg := cfg
	medianCfg.Percentile = 50
	scoreConc, scoreDisc := 0, 0
	rawConc, rawDisc := 0, 0
	for _, county := range res.World.DB.Regions(geo.County) {
		market := res.World.DB.Market(county)
		type entry struct {
			quality float64
			score   float64
			medDown float64
			ok      bool
		}
		var entries []entry
		for _, m := range market {
			f := dataset.Filter{RegionPrefix: county, ASN: m.ASN}
			s, err := medianCfg.ScoreFiltered(res.Store, f)
			if err != nil {
				entries = append(entries, entry{ok: false})
				continue
			}
			med, _, err := res.Store.Aggregate(dataset.Filter{Dataset: iqb.DatasetNDT, RegionPrefix: county, ASN: m.ASN}, dataset.Download, 50)
			if err != nil {
				entries = append(entries, entry{ok: false})
				continue
			}
			entries = append(entries, entry{quality: res.World.ISPQuality[m.ASN], score: s.IQB, medDown: med, ok: true})
		}
		for i := 0; i < len(entries); i++ {
			for j := i + 1; j < len(entries); j++ {
				a, b := entries[i], entries[j]
				if !a.ok || !b.ok {
					continue
				}
				// Only pairs whose hidden qualities are meaningfully
				// separated are a fair recovery target; a 2% investment
				// difference is below the measurement noise floor.
				if gap := a.quality - b.quality; gap < 0.15 && gap > -0.15 {
					continue
				}
				if a.score != b.score {
					if (a.quality > b.quality) == (a.score > b.score) {
						scoreConc++
					} else {
						scoreDisc++
					}
				}
				if a.medDown != b.medDown {
					if (a.quality > b.quality) == (a.medDown > b.medDown) {
						rawConc++
					} else {
						rawDisc++
					}
				}
			}
		}
	}
	fmt.Fprintln(w)
	if rawConc+rawDisc > 0 {
		fmt.Fprintf(w, "within-county, distinguishable pairs (quality gap >= 0.15):\n")
		fmt.Fprintf(w, "  continuous median NDT download orders pairs correctly: %d/%d = %.0f%%\n",
			rawConc, rawConc+rawDisc, 100*float64(rawConc)/float64(rawConc+rawDisc))
	}
	if scoreConc+scoreDisc > 0 {
		fmt.Fprintf(w, "  binarized IQB composite orders pairs correctly:        %d/%d = %.0f%%\n",
			scoreConc, scoreConc+scoreDisc, 100*float64(scoreConc)/float64(scoreConc+scoreDisc))
	}
	fmt.Fprintln(w, "\nthe raw measurements carry the quality signal, but threshold binarization")
	fmt.Fprintln(w, "quantizes it away at per-market sample sizes — a measured limitation of")
	fmt.Fprintln(w, "Nutri-Score-style composites for intra-market ISP comparison")
	return nil
}

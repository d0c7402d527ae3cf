package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"iqb/internal/dataset"
	"iqb/internal/geo"
	"iqb/internal/iqb"
	"iqb/internal/pipeline"
	"iqb/internal/report"
)

// Streaming (E11) compares exact scoring against the memory-bounded
// streaming path on the identical workload. The exact side scores every
// county from a scan of its stored records, with true percentiles; the
// streaming side scores from RunStreaming's cell index, which keeps no
// records. Cells below the sketch cutover are exact, so only cells
// promoted to DDSketches can move a score — validating that a production
// deployment can score without retaining raw measurements.
func Streaming(ctx context.Context, w io.Writer) error {
	spec := regionalSpec()
	exact, err := pipeline.Run(ctx, spec)
	if err != nil {
		return err
	}
	stream, err := pipeline.RunStreaming(ctx, spec)
	if err != nil {
		return err
	}
	// A lower time bound sends scoring down the record scan; at the
	// earliest record it keeps every record, Ookla aggregates included,
	// which are stamped at their quarter's start, before spec.Start.
	from, _, ok := exact.Store.TimeBounds(dataset.Filter{})
	if !ok {
		return fmt.Errorf("experiments: streaming: empty store")
	}
	cfg := iqb.DefaultConfig()
	fmt.Fprintln(w, "E11: exact record-scan vs streaming cell-index scoring on the identical workload")
	fmt.Fprintf(w, "(the cell index holds %d cells instead of %d raw records)\n\n",
		stream.Sketch.Cells(), exact.Store.Len())

	t := report.NewTable("County", "Exact IQB", "Stream IQB", "|delta|", "Grades").AlignRight(1, 2, 3)
	maxDelta := 0.0
	agreeGrades := 0
	counties := exact.World.DB.Regions(geo.County)
	for _, county := range counties {
		es, err := cfg.ScoreRegion(exact.Store, county, from, time.Time{})
		if err != nil {
			return err
		}
		ss, err := cfg.ScoreSketcher(stream.Sketch, county)
		if err != nil {
			return err
		}
		d := es.IQB - ss.IQB
		if d < 0 {
			d = -d
		}
		if d > maxDelta {
			maxDelta = d
		}
		grades := fmt.Sprintf("%s/%s", es.Grade, ss.Grade)
		if es.Grade == ss.Grade {
			agreeGrades++
		}
		t.Row(county,
			fmt.Sprintf("%.3f", es.IQB),
			fmt.Sprintf("%.3f", ss.IQB),
			fmt.Sprintf("%.3f", d),
			grades,
		)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nmax |delta| %.3f; grades agree in %d/%d counties — cells of at most %d values are exact, larger ones DDSketch-bounded\n",
		maxDelta, agreeGrades, len(counties), dataset.DefaultSketchCutover)
	return nil
}

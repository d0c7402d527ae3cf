package scorecache

import (
	"cmp"
	"errors"
	"log/slog"
	"slices"
	"strings"
	"time"

	"iqb/internal/iqb"
)

// Ranked is one row of a county ranking, best-first.
type Ranked struct {
	Region string
	Score  iqb.Score
}

// Rank scores every county over the unbounded time window with score
// and ranks them best-first: IQB descending, ties by code ascending.
// Counties with no usable data are left out; a county whose scoring
// fails outright is logged and counted in omitted, so one bad region
// does not take the whole ranking down. Cache.Ranking applies the same
// policy to retained scores; Rank is for a caller without the cache.
func Rank(counties []string, score func(region string, from, to time.Time) (iqb.Score, error), log *slog.Logger) (rows []Ranked, omitted int) {
	return rank(counties, func(i int) (iqb.Score, error) {
		return score(counties[i], time.Time{}, time.Time{})
	}, log)
}

// rank applies Rank's policy; score(i) scores counties[i].
func rank(counties []string, score func(i int) (iqb.Score, error), log *slog.Logger) (rows []Ranked, omitted int) {
	rows = make([]Ranked, 0, len(counties))
	for i, code := range counties {
		sc, err := score(i)
		switch {
		case err == nil:
			rows = append(rows, Ranked{Region: code, Score: sc})
		case errors.Is(err, iqb.ErrNoUsableData):
		default:
			log.Error("ranking: scoring region failed; omitting", "region", code, "err", err)
			omitted++
		}
	}
	slices.SortFunc(rows, func(a, b Ranked) int {
		return cmp.Or(cmp.Compare(b.Score.IQB, a.Score.IQB), strings.Compare(a.Region, b.Region))
	})
	return rows, omitted
}

// Ranking ranks the counties as Rank does, from each county's retained
// unbounded-window score. A county with none is scored through the
// cache, so concurrent callers collapse into one computation, and
// counted in RankingRepairs.
func (c *Cache) Ranking(counties []string) (rows []Ranked, omitted int) {
	c.rankMu.Lock()
	defer c.rankMu.Unlock()
	return c.rankLocked(counties, c.retained(counties))
}

// RankingBody is Ranking for a caller that serves the ranking encoded:
// enc turns the rows and omitted count into the response body. While
// every county keeps the entry the kept body was built from, that body
// is returned without calling enc; otherwise enc runs outside the
// ranking lock and its bytes are kept with the entries they encode
// (see "Encoded bodies" above).
func (c *Cache) RankingBody(counties []string, enc func(rows []Ranked, omitted int) ([]byte, error)) ([]byte, error) {
	kept, rows, omitted, from := c.keptOrRank(counties)
	if kept != nil {
		return kept, nil
	}
	// A failed county's score is never retained, so this also keeps no
	// ranking that omitted one.
	body, err := enc(rows, omitted)
	if err != nil || slices.Contains(from, nil) {
		return body, err
	}
	c.rankMu.Lock()
	c.rankBody, c.rankFrom = body, from
	c.rankMu.Unlock()
	return body, nil
}

// keptOrRank returns the kept body when every county still has the
// entry it was built from; otherwise it drops that body and ranks the
// counties, returning the entries the ranking was built from.
func (c *Cache) keptOrRank(counties []string) (kept []byte, rows []Ranked, omitted int, from []*entry) {
	c.rankMu.Lock()
	defer c.rankMu.Unlock()
	from = c.retained(counties)
	if c.rankBody != nil && slices.Equal(from, c.rankFrom) {
		return c.rankBody, nil, 0, nil
	}
	c.rankBody, c.rankFrom = nil, nil
	rows, omitted = c.rankLocked(counties, from)
	return nil, rows, omitted, from
}

// retained returns each county's retained unbounded-window entry, nil
// where it has none, without counting a hit.
func (c *Cache) retained(counties []string) []*entry {
	from := make([]*entry, len(counties))
	c.mu.Lock()
	for i, code := range counties {
		from[i] = c.entries[key{region: code}]
	}
	c.mu.Unlock()
	return from
}

// rankLocked ranks the counties from their entries in from. A county
// with none is repaired: scored through get and counted in
// RankingRepairs, and the entry its score was retained as, if any, is
// recorded in from. Callers hold rankMu.
func (c *Cache) rankLocked(counties []string, from []*entry) ([]Ranked, int) {
	return rank(counties, func(i int) (iqb.Score, error) {
		if e := from[i]; e != nil {
			return e.score, e.err
		}
		res, _ := c.get(c.key(counties[i], time.Time{}, time.Time{}), time.Time{}, time.Time{})
		c.mu.Lock()
		c.stats.RankingRepairs++
		c.mu.Unlock()
		from[i] = res.kept
		return res.score, res.err
	}, c.log)
}

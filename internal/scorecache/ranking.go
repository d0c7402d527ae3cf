package scorecache

import (
	"errors"
	"sort"
	"time"

	"iqb/internal/iqb"
)

// Ranked is one row of the cached county ranking, best-first.
type Ranked struct {
	Region string
	Score  iqb.Score
}

// rankRow is the view's record of one county.
type rankRow struct {
	code  string
	score iqb.Score
	// ver is the county's invalidation version the score is valid at;
	// valid is false when the score was computed while ingestion was in
	// flight and must be recomputed on the next request.
	ver    uint64
	valid  bool
	noData bool
	ranked bool // present in the sorted slice
}

// rowLess is the ranking order: IQB descending, ties by code ascending.
func rowLess(aIQB float64, aCode string, bIQB float64, bCode string) bool {
	if aIQB != bIQB {
		return aIQB > bIQB
	}
	return aCode < bCode
}

// SortRanked sorts rows into the order the cached view maintains, so a
// ranking scored without the cache lists its rows identically.
func SortRanked(rows []Ranked) {
	sort.Slice(rows, func(i, j int) bool {
		return rowLess(rows[i].Score.IQB, rows[i].Region, rows[j].Score.IQB, rows[j].Region)
	})
}

// rankPos returns the sorted-slice position of (iqb, code): the index
// of the first row that does not order before it.
func (c *Cache) rankPos(iqb float64, code string) int {
	return sort.Search(len(c.ranked), func(i int) bool {
		r := c.ranked[i]
		return !rowLess(r.score.IQB, r.code, iqb, code)
	})
}

// removeRanked drops a row from the sorted slice.
func (c *Cache) removeRanked(row *rankRow) {
	if !row.ranked {
		return
	}
	i := c.rankPos(row.score.IQB, row.code)
	for i < len(c.ranked) && c.ranked[i] != row {
		i++ // equal-key neighbors; walk to the exact row
	}
	if i < len(c.ranked) {
		c.ranked = append(c.ranked[:i], c.ranked[i+1:]...)
	}
	row.ranked = false
}

// insertRanked places a row at its sorted position.
func (c *Cache) insertRanked(row *rankRow) {
	i := c.rankPos(row.score.IQB, row.code)
	c.ranked = append(c.ranked, nil)
	copy(c.ranked[i+1:], c.ranked[i:])
	c.ranked[i] = row
	row.ranked = true
}

// Ranking returns the counties ranked best-first over the unbounded
// time window, repairing only the rows whose regions were invalidated
// since the last call: each dirty county is rescored (through the score
// cache, so concurrent callers collapse into one computation) and moved
// to its new sorted position. Counties with no usable data are left
// out; counties whose scoring failed outright are skipped, logged, and
// counted in omitted, so one bad region no longer takes the whole
// ranking down.
func (c *Cache) Ranking(counties []string) (rows []Ranked, omitted int) {
	c.rankMu.Lock()
	defer c.rankMu.Unlock()
	omitted = c.repairLocked(counties)
	return c.rowsLocked(), omitted
}

// RankingBody is Ranking for a caller that serves the ranking encoded:
// enc turns the rows and omitted count into the response body. When the
// call repairs no row, the body of the view's last encoding is returned
// without calling enc; otherwise enc runs outside the ranking lock and
// its bytes are kept only if no other call repaired the view meanwhile
// (see "Encoded bodies" above).
func (c *Cache) RankingBody(counties []string, enc func(rows []Ranked, omitted int) ([]byte, error)) ([]byte, error) {
	c.rankMu.Lock()
	omitted := c.repairLocked(counties)
	if body := c.rankBody; body != nil {
		c.rankMu.Unlock()
		return body, nil
	}
	rows, gen := c.rowsLocked(), c.rankGen
	c.rankMu.Unlock()

	body, err := enc(rows, omitted)
	if err != nil || omitted > 0 {
		return body, err
	}
	c.rankMu.Lock()
	if c.rankGen == gen {
		if c.rankBody == nil {
			c.rankBody = body
		}
		body = c.rankBody
	}
	c.rankMu.Unlock()
	return body, nil
}

// repairLocked rescores every county whose row is missing, was computed
// while ingestion was in flight, or predates its region's current
// version; if it repaired any, it starts a new view generation and
// drops the stored body. The versions are read in one c.mu hold before
// the loop; a commit landing after that is repaired on the next call.
// Callers hold rankMu.
func (c *Cache) repairLocked(counties []string) (omitted int) {
	c.mu.Lock()
	vers := c.rankVers[:0]
	for _, code := range counties {
		vers = append(vers, c.ver[code])
	}
	c.mu.Unlock()
	c.rankVers = vers

	repaired := false
	for i, code := range counties {
		row := c.rankRow[code]
		if row != nil && row.valid && row.ver == vers[i] {
			continue
		}
		repaired = true
		res, _ := c.get(c.key(code, time.Time{}, time.Time{}), time.Time{}, time.Time{})
		if row != nil {
			c.removeRanked(row)
		}
		c.mu.Lock()
		c.stats.RankingRepairs++
		c.mu.Unlock()
		if res.err != nil && !errors.Is(res.err, iqb.ErrNoUsableData) {
			// Skip-and-log: drop the row so the county is retried on the
			// next request, and let the rest of the ranking stand.
			delete(c.rankRow, code)
			c.log.Error("ranking: scoring region failed; omitting", "region", code, "err", res.err)
			omitted++
			continue
		}
		row = &rankRow{code: code, ver: res.ver, valid: res.clean}
		if res.err != nil {
			row.noData = true
		} else {
			row.score = res.score
			c.insertRanked(row)
		}
		c.rankRow[code] = row
	}
	if repaired {
		c.rankGen++
		c.rankBody = nil
	}
	return omitted
}

// rowsLocked copies the sorted view out. Callers hold rankMu.
func (c *Cache) rowsLocked() []Ranked {
	rows := make([]Ranked, len(c.ranked))
	for i, r := range c.ranked {
		rows[i] = Ranked{Region: r.code, Score: r.score}
	}
	return rows
}

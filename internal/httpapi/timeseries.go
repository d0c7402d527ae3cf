package httpapi

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"iqb/internal/dataset"
	"iqb/internal/iqb"
)

// TimeSeriesResponse wraps a windowed score series.
type TimeSeriesResponse struct {
	Region string          `json:"region"`
	Window string          `json:"window"`
	Points []iqb.TimePoint `json:"points"`
}

// handleTimeSeries serves /v1/timeseries?region=R[&window=24h]. The
// series spans the store's record time bounds for the region; a window
// so narrow that the series would exceed iqb.MaxWindows points is a 400.
func (s *Server) handleTimeSeries(w http.ResponseWriter, r *http.Request) {
	q, region, ok := s.regionQuery(w, r)
	if !ok {
		return
	}
	window := 24 * time.Hour
	if raw := q.Get("window"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad window %q", raw))
			return
		}
		window = d
	}
	from, to, ok := s.store.TimeBounds(dataset.Filter{RegionPrefix: region})
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no data for region %q", region))
		return
	}
	points, err := s.cfg.ScoreWindows(s.store, region, from, to.Add(time.Nanosecond), window)
	if errors.Is(err, iqb.ErrTooManyWindows) {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err != nil {
		s.log.Error("timeseries", "region", region, "err", err)
		writeError(w, http.StatusInternalServerError, "time series failed")
		return
	}
	s.writeJSON(w, http.StatusOK, TimeSeriesResponse{Region: region, Window: window.String(), Points: points})
}

// HourlyResponse wraps an hour-of-day score profile.
type HourlyResponse struct {
	Region  string           `json:"region"`
	Band    int              `json:"band_hours"`
	Buckets []iqb.HourBucket `json:"buckets"`
}

// handleHourly serves /v1/hourly?region=R[&band=3].
func (s *Server) handleHourly(w http.ResponseWriter, r *http.Request) {
	q, region, ok := s.regionQuery(w, r)
	if !ok {
		return
	}
	band := 3
	if raw := q.Get("band"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad band %q", raw))
			return
		}
		band = n
	}
	buckets, err := s.cfg.ScoreByHourOfDay(s.store, region, band)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, HourlyResponse{Region: region, Band: band, Buckets: buckets})
}

// TimeSeries fetches a region's windowed score series.
func (c *Client) TimeSeries(ctx context.Context, region string, window time.Duration) (TimeSeriesResponse, error) {
	var out TimeSeriesResponse
	path := "/v1/timeseries?region=" + url.QueryEscape(region)
	if window > 0 {
		path += "&window=" + window.String()
	}
	err := c.get(ctx, path, &out)
	return out, err
}

// Hourly fetches a region's hour-of-day profile.
func (c *Client) Hourly(ctx context.Context, region string, band int) (HourlyResponse, error) {
	var out HourlyResponse
	path := "/v1/hourly?region=" + url.QueryEscape(region)
	if band > 0 {
		path += "&band=" + strconv.Itoa(band)
	}
	err := c.get(ctx, path, &out)
	return out, err
}

package httpapi

import (
	"net/http"
	"strings"

	"iqb/internal/telemetry"
)

// endpointMetrics holds one route's instruments.
type endpointMetrics struct {
	requests *telemetry.Counter
	inFlight *telemetry.Gauge
	latency  *telemetry.Histogram
}

// observeLatency records one request's elapsed seconds; a nil receiver
// (uninstrumented server, or a 404 no route claimed) is a no-op.
func (em *endpointMetrics) observeLatency(seconds float64) {
	if em == nil {
		return
	}
	em.latency.Observe(seconds)
}

// trackedWriter is the per-request carrier between the route middleware
// and ServeHTTP: the middleware stamps which endpoint served the
// request so the outer handler can attribute its single elapsed
// measurement to that endpoint's histogram.
type trackedWriter struct {
	http.ResponseWriter
	endpoint *endpointMetrics
}

// newEndpointMetrics registers one route's request counter, in-flight
// gauge and DDSketch-backed latency summary on r, labelled by method
// and path; a nil r leaves the route uninstrumented (nil result).
func newEndpointMetrics(r *telemetry.Registry, pattern string) *endpointMetrics {
	if r == nil {
		return nil
	}
	method, path, _ := strings.Cut(pattern, " ")
	labels := telemetry.Labels{"method": method, "path": path}
	return &endpointMetrics{
		requests: r.Counter("iqb_http_requests_total",
			"HTTP requests served, by endpoint.", labels),
		inFlight: r.Gauge("iqb_http_in_flight",
			"HTTP requests currently being served, by endpoint.", labels),
		latency: r.Histogram("iqb_http_request_seconds",
			"HTTP request latency by endpoint (same measurement as the request log line).", labels),
	}
}

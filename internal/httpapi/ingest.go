package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"iqb/internal/dataset"
	"iqb/internal/ingest"
)

// DefaultIngestBodyCap bounds one POST /v1/ingest request body when
// Config.IngestBodyCap sets none.
const DefaultIngestBodyCap = 64 << 20

// ingestRetryAfterSeconds is the backoff hint sent with a 429: long
// enough for a drain round to free queue budget, short enough that a
// load generator's closed loop recovers promptly.
const ingestRetryAfterSeconds = 1

// IngestResponse reports one POST /v1/ingest request's outcome.
// Accepted records are durably committed (they survive kill-and-
// restart); rejected records were shed at admission and never applied.
// On a 429 both counts can be nonzero: chunks enqueued before the
// queue filled are already durable, and the body says exactly how many.
type IngestResponse struct {
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
	// Error and Line locate the failure on non-202 responses; Line is
	// the 1-based NDJSON input line of a malformed record, 0 otherwise.
	Error string `json:"error,omitempty"`
	Line  int    `json:"line,omitempty"`
}

// handleIngest streams an NDJSON request body into the ingest queue in
// drainer-sized chunks. Each chunk is acknowledged durably before the
// next is decoded, so the accepted count in every response — including
// error responses — names records that survive a crash. Overload sheds
// the remaining stream with a 429 + Retry-After instead of queueing
// unboundedly; a chunk holding a record ID the store already has (or
// holding one twice) is the client's fault, a 400 naming the key.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.ingestBodyCap)
	dec := dataset.NewNDJSONDecoder(body)
	chunk := s.ingestq.DrainRecords()
	accepted := 0
	for {
		rs, wireBytes, err := dec.Next(chunk)
		if err == io.EOF {
			break
		}
		if err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				s.writeJSON(w, http.StatusRequestEntityTooLarge, IngestResponse{
					Accepted: accepted,
					Error:    fmt.Sprintf("body exceeds %d-byte cap", s.ingestBodyCap),
				})
				return
			}
			var le *dataset.LineError
			if errors.As(err, &le) {
				s.writeJSON(w, http.StatusBadRequest, IngestResponse{
					Accepted: accepted,
					Error:    le.Error(),
					Line:     le.Line,
				})
				return
			}
			s.writeJSON(w, http.StatusBadRequest, IngestResponse{
				Accepted: accepted, Error: err.Error(),
			})
			return
		}
		if err := s.ingestq.Enqueue(rs, wireBytes); err != nil {
			// Whatever failed, this chunk was not applied (AddBatch is
			// atomic), so nothing from it is visible to queries.
			switch {
			case errors.Is(err, ingest.ErrOverload):
				w.Header().Set("Retry-After", strconv.Itoa(ingestRetryAfterSeconds))
				s.writeJSON(w, http.StatusTooManyRequests, IngestResponse{
					Accepted: accepted,
					Rejected: len(rs),
					Error:    "ingest queue overloaded; retry after backoff",
				})
				return
			case errors.Is(err, dataset.ErrDuplicate):
				s.writeJSON(w, http.StatusBadRequest, IngestResponse{Accepted: accepted, Error: err.Error()})
				return
			}
			s.log.Error("ingest: commit failed", "records", len(rs), "err", err)
			s.writeJSON(w, http.StatusInternalServerError, IngestResponse{
				Accepted: accepted,
				Error:    "ingest commit failed",
			})
			return
		}
		accepted += len(rs)
	}
	s.writeJSON(w, http.StatusAccepted, IngestResponse{Accepted: accepted})
}

// APIError is a non-2xx response surfaced by the typed client, keeping
// the status code inspectable (a load generator must tell a 429 shed
// from a hard failure).
type APIError struct {
	Status int
	Path   string
	Msg    string
}

func (e *APIError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("httpapi: %s: %s (status %d)", e.Path, e.Msg, e.Status)
	}
	return fmt.Sprintf("httpapi: %s: status %d", e.Path, e.Status)
}

// Ingest streams records to POST /v1/ingest as NDJSON. The returned
// response carries the server's accepted/rejected counts even when err
// is non-nil (overload, bad record): accepted records are durable
// regardless of how the request ended. Non-2xx statuses surface as an
// *APIError.
func (c *Client) Ingest(ctx context.Context, rs []dataset.Record) (IngestResponse, error) {
	var out IngestResponse
	var buf bytes.Buffer
	if err := dataset.WriteNDJSON(&buf, rs); err != nil {
		return out, fmt.Errorf("httpapi: encoding ingest body: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/ingest", &buf)
	if err != nil {
		return out, fmt.Errorf("httpapi: building request: %w", err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return out, fmt.Errorf("httpapi: /v1/ingest: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return out, fmt.Errorf("httpapi: reading /v1/ingest: %w", err)
	}
	// Decode whatever counts the server sent before judging the status:
	// a 429 still reports how many records got in.
	if jerr := json.Unmarshal(body, &out); jerr != nil && resp.StatusCode == http.StatusAccepted {
		return out, fmt.Errorf("httpapi: decoding /v1/ingest: %w", jerr)
	}
	if resp.StatusCode != http.StatusAccepted {
		msg := out.Error
		if msg == "" {
			var eb errorBody
			if json.Unmarshal(body, &eb) == nil {
				msg = eb.Error
			}
		}
		return out, &APIError{Status: resp.StatusCode, Path: "/v1/ingest", Msg: msg}
	}
	return out, nil
}

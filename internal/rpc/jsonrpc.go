// Package rpc is the repository's quote-service layer: a JSON-RPC 2.0
// server over HTTP, exposing the solve/simulate core behind cmd/swapd. It
// serves solve requests for any (scenario × variant) cell of the
// registry, streams Monte Carlo convergence snapshots as an NDJSON
// response until the adaptive stopper fires or the client disconnects,
// and mirrors cmd/scenarios' list/diff queries — everything the one-shot
// CLIs compute, as a long-running daemon.
//
// Solve requests go through one per-cell tier keyed by variant.CellKey:
// concurrent requests for a cell coalesce on one computation and solved
// cells stay retained as wire bytes, in front of the persistent store and
// the process-wide model cache. Every request runs under a context
// budget, and shutdown is
// graceful: in-flight requests drain, streams are cancelled with a
// terminal error response, new requests are rejected. See DESIGN.md ("RPC
// surface") for the layout and the budget/coalescing rules.
package rpc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// Version is the JSON-RPC protocol version the server speaks.
const Version = "2.0"

// JSON-RPC 2.0 error codes: the spec's reserved codes first, then the
// server-defined range (-32000 to -32099).
const (
	// CodeParseError reports unparseable request bytes.
	CodeParseError = -32700
	// CodeInvalidRequest reports a structurally invalid request envelope.
	CodeInvalidRequest = -32600
	// CodeMethodNotFound reports an unknown method.
	CodeMethodNotFound = -32601
	// CodeInvalidParams reports malformed or out-of-range parameters.
	CodeInvalidParams = -32602
	// CodeInternalError reports a server-side failure.
	CodeInternalError = -32603
	// CodeShuttingDown rejects requests arriving while the server drains.
	CodeShuttingDown = -32000
	// CodeBudgetExceeded reports a request that outlived its time budget.
	CodeBudgetExceeded = -32001
	// CodeCanceled reports a client- or server-cancelled stream.
	CodeCanceled = -32002
	// CodeOverloaded sheds a request the admission controller could not
	// seat: the in-flight semaphore and its wait queue are both full. The
	// error's Data carries a retryAfterMs hint; over HTTP the response
	// additionally arrives as 503 with a Retry-After header. See DESIGN.md
	// ("Robustness") for the client contract.
	CodeOverloaded = -32005
)

// Request is one JSON-RPC 2.0 request or notification.
type Request struct {
	// JSONRPC must be "2.0".
	JSONRPC string `json:"jsonrpc"`
	// ID correlates the response; requests without an ID (or with a JSON
	// null) are notifications and get no response.
	ID json.RawMessage `json:"id,omitempty"`
	// Method names the procedure ("swap.solve", "scenario.list", …).
	Method string `json:"method"`
	// Params is the procedure's parameter object, left raw for the
	// handler to decode.
	Params json.RawMessage `json:"params,omitempty"`
}

// IsNotification reports whether the request carries no usable ID.
func (r Request) IsNotification() bool {
	return len(r.ID) == 0 || string(r.ID) == "null"
}

// Validate checks the envelope's structural invariants: the version tag,
// a non-empty method, an ID that is a string, number or null, and params
// that are an object or array when present.
func (r Request) Validate() *Error {
	if r.JSONRPC != Version {
		return Errorf(CodeInvalidRequest, "jsonrpc must be %q, got %q", Version, r.JSONRPC)
	}
	if r.Method == "" {
		return Errorf(CodeInvalidRequest, "empty method")
	}
	if len(r.ID) > 0 {
		var id any
		if err := json.Unmarshal(r.ID, &id); err != nil {
			return Errorf(CodeInvalidRequest, "malformed id")
		}
		switch id.(type) {
		case string, float64, nil:
		default:
			return Errorf(CodeInvalidRequest, "id must be a string, number or null")
		}
	}
	if len(r.Params) > 0 {
		switch r.Params[0] {
		case '{', '[':
		default:
			return Errorf(CodeInvalidParams, "params must be an object or array")
		}
	}
	return nil
}

// ParseRequest decodes and validates one request envelope. Batch requests
// (JSON arrays) are deliberately not supported: the single-flight layer
// coalesces duplicate load server-side, which removes the main reason to
// batch, and rejecting arrays keeps the cancellation story per-request.
func ParseRequest(data []byte) (Request, *Error) {
	for _, b := range data {
		switch b {
		case ' ', '\t', '\r', '\n':
			continue
		case '[':
			return Request{}, Errorf(CodeInvalidRequest, "batch requests are not supported")
		}
		break
	}
	var req Request
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return Request{}, Errorf(CodeParseError, "parse error: %v", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return Request{}, Errorf(CodeParseError, "trailing data after request")
	}
	if rerr := req.Validate(); rerr != nil {
		return Request{}, rerr
	}
	return req, nil
}

// Response is one JSON-RPC 2.0 response.
type Response struct {
	// JSONRPC is always "2.0".
	JSONRPC string `json:"jsonrpc"`
	// ID echoes the request's ID (null for requests whose ID could not be
	// read).
	ID json.RawMessage `json:"id"`
	// Result carries the method result; exactly one of Result and Error
	// is set.
	Result json.RawMessage `json:"result,omitempty"`
	// Error carries the failure, nil on success.
	Error *Error `json:"error,omitempty"`
}

// Notification is one server-to-client stream message (a JSON-RPC request
// without an ID): a swap.simulate progress line.
type Notification struct {
	// JSONRPC is always "2.0".
	JSONRPC string `json:"jsonrpc"`
	// Method names the stream ("swap.progress").
	Method string `json:"method"`
	// Params is the stream payload.
	Params any `json:"params,omitempty"`
}

// Error is a JSON-RPC 2.0 error object. It implements error so handlers
// can return it through ordinary error plumbing.
type Error struct {
	// Code is one of the Code* constants.
	Code int `json:"code"`
	// Message is a one-line human-readable summary.
	Message string `json:"message"`
	// Data carries optional structured detail.
	Data any `json:"data,omitempty"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("jsonrpc %d: %s", e.Code, e.Message)
}

// Errorf builds an Error from a format string.
func Errorf(code int, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// NewResponse builds a success response, encoding result as JSON. An
// encoding failure degrades to an internal error response — it cannot be
// reported any other way at this layer.
func NewResponse(id json.RawMessage, result any) Response {
	raw, err := json.Marshal(result)
	if err != nil {
		return NewErrorResponse(id, Errorf(CodeInternalError, "encoding result: %v", err))
	}
	return Response{JSONRPC: Version, ID: normalizeID(id), Result: raw}
}

// NewErrorResponse builds an error response.
func NewErrorResponse(id json.RawMessage, rerr *Error) Response {
	return Response{JSONRPC: Version, ID: normalizeID(id), Error: rerr}
}

// normalizeID substitutes the JSON null ID the spec requires when the
// request's ID was absent or unreadable.
func normalizeID(id json.RawMessage) json.RawMessage {
	if len(id) == 0 {
		return json.RawMessage("null")
	}
	return id
}

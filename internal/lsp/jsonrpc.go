// Package lsp implements a Language Server Protocol server for VASS over
// any stream transport (stdio in cmd/vaselsp, in-memory pipes in tests).
//
// The server keeps every open document in one project.Project, so
// cross-file references (an architecture in one buffer, its entity in
// another) resolve exactly as they do in the batch tools, and the
// pipeline's content-addressed memo makes each keystroke re-analyze only
// the units the edit can affect. Diagnostics come from the same
// error-recovering front end as the CLIs: a syntax error never blanks the
// analysis, it yields ERROR-node holes and the sema findings around them.
package lsp

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
)

// message is a JSON-RPC 2.0 envelope covering requests, responses and
// notifications (ID is absent on notifications).
type message struct {
	JSONRPC string           `json:"jsonrpc"`
	ID      *json.RawMessage `json:"id,omitempty"`
	Method  string           `json:"method,omitempty"`
	Params  json.RawMessage  `json:"params,omitempty"`
	Result  any              `json:"result,omitempty"`
	Error   *respError       `json:"error,omitempty"`
}

type respError struct {
	Code    int    `json:"code"`
	Message string `json:"message"`
}

// JSON-RPC error codes the server emits.
const (
	codeParseError     = -32700
	codeMethodNotFound = -32601
	codeInvalidParams  = -32602
)

// conn frames JSON-RPC messages with Content-Length headers, the base
// protocol of the LSP specification. Writes are serialized; reads are
// owned by the single serve loop.
type conn struct {
	in  *bufio.Reader
	mu  sync.Mutex
	out io.Writer
}

func newConn(r io.Reader, w io.Writer) *conn {
	return &conn{in: bufio.NewReader(r), out: w}
}

// read returns the next framed message, or io.EOF at end of stream.
func (c *conn) read() (*message, error) {
	length := -1
	for {
		line, err := c.in.ReadString('\n')
		if err != nil {
			return nil, err
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "" {
			break
		}
		name, value, ok := strings.Cut(line, ":")
		if !ok {
			return nil, fmt.Errorf("lsp: malformed header %q", line)
		}
		if strings.EqualFold(strings.TrimSpace(name), "Content-Length") {
			length, err = strconv.Atoi(strings.TrimSpace(value))
			if err != nil {
				return nil, fmt.Errorf("lsp: bad Content-Length: %v", err)
			}
		}
	}
	if length < 0 {
		return nil, fmt.Errorf("lsp: missing Content-Length header")
	}
	body := make([]byte, length)
	if _, err := io.ReadFull(c.in, body); err != nil {
		return nil, err
	}
	var m message
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("lsp: bad message body: %v", err)
	}
	return &m, nil
}

// write frames and sends one message.
func (c *conn) write(m *message) error {
	m.JSONRPC = "2.0"
	body, err := json.Marshal(m)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := fmt.Fprintf(c.out, "Content-Length: %d\r\n\r\n", len(body)); err != nil {
		return err
	}
	_, err = c.out.Write(body)
	return err
}

// reply sends a success response to id.
func (c *conn) reply(id *json.RawMessage, result any) error {
	if result == nil {
		result = json.RawMessage("null")
	}
	return c.write(&message{ID: id, Result: result})
}

// replyError sends an error response to id.
func (c *conn) replyError(id *json.RawMessage, code int, format string, args ...any) error {
	return c.write(&message{ID: id, Error: &respError{Code: code, Message: fmt.Sprintf(format, args...)}})
}

// notify sends a server-initiated notification.
func (c *conn) notify(method string, params any) error {
	raw, err := json.Marshal(params)
	if err != nil {
		return err
	}
	return c.write(&message{Method: method, Params: raw})
}

package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/vec"
)

// endpoint is one handler on a loopback listener, plus the single
// keep-alive connection the closed loop drives it through.
type endpoint struct {
	handler http.Handler
	httpd   *http.Server
	served  chan struct{}
	conn    net.Conn
	br      *bufio.Reader
	body    bytes.Buffer
}

func listen(h http.Handler) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &endpoint{handler: h, served: make(chan struct{})}
	e.httpd = &http.Server{Handler: e.handler}
	go func() {
		defer close(e.served)
		_ = e.httpd.Serve(ln) // returns ErrServerClosed on close
	}()
	e.conn, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		e.close()
		return nil, err
	}
	e.br = bufio.NewReaderSize(e.conn, 64<<10)
	return e, nil
}

// close stops the listener and waits for its goroutine; whatever the
// handler serves is the caller's to close.
func (e *endpoint) close() {
	if e.conn != nil {
		e.conn.Close()
	}
	e.httpd.Close()
	<-e.served
}

// do sends one pre-built request and reads the whole reply. The
// returned duration runs from the request write to the last body byte;
// the body is valid until the next call.
func (e *endpoint) do(req []byte) (status int, body []byte, d time.Duration, err error) {
	start := time.Now()
	if _, err = e.conn.Write(req); err != nil {
		return 0, nil, 0, err
	}
	resp, err := http.ReadResponse(e.br, nil)
	if err != nil {
		return 0, nil, 0, err
	}
	e.body.Reset()
	_, err = io.Copy(&e.body, resp.Body)
	d = time.Since(start)
	resp.Body.Close()
	if err != nil {
		return 0, nil, 0, err
	}
	return resp.StatusCode, e.body.Bytes(), d, nil
}

// request frames a JSON body as the bytes of one HTTP/1.1 request.
func request(method, path string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		method, path, len(body))
	b.Write(body)
	return b.Bytes()
}

// The body builders write floats in strconv's shortest round-trip form,
// so the server parses back the exact float64 the generator made.

func appendVec(b []byte, v vec.Vector) []byte {
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, x, 'g', -1, 64)
	}
	return append(b, ']')
}

func searchTail(b []byte, unsigned, explain bool) []byte {
	b = append(b, `,"k":`...)
	b = strconv.AppendInt(b, topK, 10)
	if unsigned {
		b = append(b, `,"unsigned":true`...)
	}
	if explain {
		b = append(b, `,"explain":true`...)
	}
	return append(b, '}')
}

func searchBody(q vec.Vector, unsigned, explain bool) []byte {
	b := appendVec([]byte(`{"q":`), q)
	return searchTail(b, unsigned, explain)
}

func batchBody(qs []vec.Vector, unsigned bool) []byte {
	b := []byte(`{"queries":[`)
	for i, q := range qs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendVec(b, q)
	}
	b = append(b, ']')
	return searchTail(b, unsigned, false)
}

func recordsBody(ids []int, vs []vec.Vector) []byte {
	b := []byte(`{"records":[`)
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"id":`...)
		b = strconv.AppendInt(b, int64(id), 10)
		b = append(b, `,"vec":`...)
		b = appendVec(b, vs[i])
		b = append(b, '}')
	}
	return append(b, `]}`...)
}

func idsBody(ids []int) []byte {
	b := []byte(`{"ids":[`)
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return append(b, `]}`...)
}

const (
	searchPath = "/collections/" + dataName + "/search"
	upsertPath = "/collections/" + dataName + "/vectors"
	deletePath = "/collections/" + dataName + "/vectors/delete"
)

package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection to the daemon.  The
// benchmark speaks the protocol itself, with requests rendered once up
// front, so the load generator spends as little CPU as possible on the
// two cores it shares with the daemon and adds no pooling or goroutine
// handoffs of its own to the round trips it times.
type conn struct {
	addr string
	nc   net.Conn
	br   *bufio.Reader
}

func dial(addr string) (*conn, error) {
	c := &conn{addr: addr}
	return c, c.redial()
}

func (c *conn) redial() error {
	if c.nc != nil {
		c.nc.Close()
	}
	nc, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
	if err != nil {
		return err
	}
	c.nc, c.br = nc, bufio.NewReaderSize(nc, 64<<10)
	return nil
}

func (c *conn) close() {
	if c.nc != nil {
		c.nc.Close()
	}
}

// request renders a complete HTTP/1.1 request.
func request(method, path string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\nHost: bench\r\n", method, path)
	if body != nil {
		fmt.Fprintf(&b, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	}
	b.WriteString("\r\n")
	b.Write(body)
	return b.Bytes()
}

// response is what the benchmark keeps of a reply.
type response struct {
	status int
	cache  string // the X-Cache header
	body   []byte
}

// do sends one rendered request and reads the whole reply, with a
// deadline so a stuck daemon fails the op instead of the run.
func (c *conn) do(req []byte, timeout time.Duration) (response, error) {
	if err := c.nc.SetDeadline(time.Now().Add(timeout)); err != nil {
		return response{}, err
	}
	resp, keep, err := c.roundTrip(req)
	if err != nil || !keep {
		// The connection state is unknown (or the server is closing
		// it): start the next request on a fresh one.
		if rerr := c.redial(); err == nil {
			err = rerr
		}
	}
	return resp, err
}

func (c *conn) roundTrip(req []byte) (response, bool, error) {
	var resp response
	if _, err := c.nc.Write(req); err != nil {
		return resp, false, err
	}
	line, err := c.line()
	if err != nil {
		return resp, false, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || !strings.HasPrefix(line, "HTTP/1.") {
		return resp, false, fmt.Errorf("bad status line %q", line)
	}
	if resp.status, err = strconv.Atoi(line[9:12]); err != nil {
		return resp, false, fmt.Errorf("bad status line %q", line)
	}
	length, chunked, keep := -1, false, true
	for {
		h, err := c.line()
		if err != nil {
			return resp, false, err
		}
		if h == "" {
			break
		}
		name, value, _ := strings.Cut(h, ":")
		value = strings.TrimSpace(value)
		switch strings.ToLower(name) {
		case "content-length":
			if length, err = strconv.Atoi(value); err != nil {
				return resp, false, fmt.Errorf("bad Content-Length %q", value)
			}
		case "transfer-encoding":
			chunked = strings.EqualFold(value, "chunked")
		case "connection":
			keep = !strings.EqualFold(value, "close")
		case "x-cache":
			resp.cache = value
		}
	}
	switch {
	case chunked:
		resp.body, err = c.chunks()
	case length >= 0:
		resp.body = make([]byte, length)
		_, err = io.ReadFull(c.br, resp.body)
	default:
		resp.body, err = io.ReadAll(c.br)
		keep = false
	}
	return resp, keep, err
}

func (c *conn) line() (string, error) {
	s, err := c.br.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(s, "\r\n"), nil
}

func (c *conn) chunks() ([]byte, error) {
	var body []byte
	for {
		line, err := c.line()
		if err != nil {
			return nil, err
		}
		size, err := strconv.ParseInt(strings.TrimSpace(strings.SplitN(line, ";", 2)[0]), 16, 64)
		if err != nil || size < 0 {
			return nil, fmt.Errorf("bad chunk size %q", line)
		}
		if size == 0 {
			// Trailers (none expected) end with an empty line.
			for {
				t, err := c.line()
				if err != nil {
					return nil, err
				}
				if t == "" {
					return body, nil
				}
			}
		}
		n := len(body)
		body = append(body, make([]byte, size)...)
		if _, err := io.ReadFull(c.br, body[n:]); err != nil {
			return nil, err
		}
		if crlf, err := c.line(); err != nil || crlf != "" {
			return nil, fmt.Errorf("chunk of %d bytes not followed by CRLF", size)
		}
	}
}

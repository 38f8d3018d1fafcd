package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Client talks to a `lumina serve` daemon. The zero value is unusable;
// set Base (e.g. "http://127.0.0.1:8642").
type Client struct {
	// Base is the daemon's root URL, without a trailing slash.
	Base string
	// HTTP overrides the transport (nil = http.DefaultClient).
	HTTP *http.Client
}

func (c *Client) client() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// do issues one request and decodes a JSON response into out (which may
// be nil). Non-2xx responses become errors carrying the server's error
// message.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		js, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(js)
	}
	req, err := http.NewRequestWithContext(ctx, method, strings.TrimSuffix(c.Base, "/")+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return fmt.Errorf("serve: %s %s: %s (HTTP %d)", method, path, e.Error, resp.StatusCode)
		}
		return fmt.Errorf("serve: %s %s: HTTP %d", method, path, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// Submit posts a scenario and returns its (possibly already finished)
// status.
func (c *Client) Submit(ctx context.Context, req SubmitRequest) (*RunStatus, error) {
	var st RunStatus
	if err := c.do(ctx, http.MethodPost, "/v1/runs", req, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Status fetches a run's current status.
func (c *Client) Status(ctx context.Context, id string) (*RunStatus, error) {
	var st RunStatus
	if err := c.do(ctx, http.MethodGet, "/v1/runs/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// WaitDone polls until the run reaches a terminal state (done or
// failed) or ctx expires. poll <= 0 means 50ms.
func (c *Client) WaitDone(ctx context.Context, id string, poll time.Duration) (*RunStatus, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return nil, err
		}
		if st.State == StateDone || st.State == StateFailed {
			return st, nil
		}
		select {
		case <-time.After(poll):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// Artifact downloads one artifact's bytes.
func (c *Client) Artifact(ctx context.Context, id, name string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimSuffix(c.Base, "/")+"/v1/runs/"+id+"/artifacts/"+name, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("serve: artifact %s/%s: HTTP %d: %s", id, name, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return data, nil
}

// CacheStats fetches the daemon's result-cache counters.
func (c *Client) CacheStats(ctx context.Context) (*CacheStats, error) {
	var st CacheStats
	if err := c.do(ctx, http.MethodGet, "/v1/cache/stats", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Healthz checks daemon liveness and returns its health document.
func (c *Client) Healthz(ctx context.Context) (*Health, error) {
	var h Health
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &h); err != nil {
		return nil, err
	}
	return &h, nil
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"dandelion"
	"dandelion/internal/frontend"
	"dandelion/internal/services"
	"dandelion/internal/workloads"
)

// logs-open: the paper's Figure 3 application (Listing 2) as single
// /invoke/ requests, open loop, keyed, on a journaled node.
const (
	logsRate   = 1000.0 // arrivals/s
	logsConns  = 2
	logsShards = 3
	logsLines  = 8
)

const renderLogs = `
composition RenderLogs(AccessToken) => HTMLOutput {
    Access(AccessToken = all AccessToken)
        => (AuthRequest = HTTPRequest);
    HTTP(Request = each AuthRequest)
        => (AuthResponse = Response);
    FanOut(HTTPResponse = all AuthResponse)
        => (LogRequests = HTTPRequests);
    HTTP(Request = each LogRequests)
        => (LogResponses = Response);
    Render(HTTPResponses = all LogResponses)
        => (HTMLOutput = HTMLOutput);
}`

// Every request presents its own access token, "tok-<id>", which the
// auth service maps to shard endpoints tagged "?r=<id>": the request id
// then reaches every function and service the request crosses.
func logsToken(id uint64) string { return fmt.Sprintf("tok-%d", id) }

// logLine renders one seeded access-log line.
func logLine(rng *rand.Rand) string {
	methods := []string{"GET", "POST", "PUT", "DELETE"}
	paths := []string{"items", "orders", "users", "carts", "search", "health"}
	return fmt.Sprintf("%s /api/%s/%d %d %dms", methods[rng.Intn(len(methods))],
		paths[rng.Intn(len(paths))], rng.Intn(100000), 200+rng.Intn(4)*100, 1+rng.Intn(900))
}

// registerLogsApp registers the Figure 3 functions and composition.
func registerLogsApp(p workloads.Registrar, authURL string) error {
	err := p.RegisterFunction(dandelion.ComputeFunc{Name: "Access", Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
		token := string(in[0].Items[0].Data)
		req := dandelion.HTTPRequest("POST", authURL+"/auth", nil, []byte(token))
		return []dandelion.Set{{Name: "HTTPRequest", Items: []dandelion.Item{{Name: "auth", Data: req}}}}, nil
	}})
	if err != nil {
		return err
	}
	err = p.RegisterFunction(dandelion.ComputeFunc{Name: "FanOut", Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
		resp, err := dandelion.ParseHTTPResponse(in[0].Items[0].Data)
		if err != nil {
			return nil, err
		}
		if resp.Status != http.StatusOK {
			return nil, fmt.Errorf("auth failed with status %d", resp.Status)
		}
		var endpoints []string
		if err := json.Unmarshal(resp.Body, &endpoints); err != nil {
			return nil, err
		}
		out := dandelion.Set{Name: "HTTPRequests"}
		for i, ep := range endpoints {
			out.Items = append(out.Items, dandelion.Item{
				Name: fmt.Sprintf("log%d", i),
				Data: dandelion.HTTPRequest("GET", ep, nil, nil),
			})
		}
		return []dandelion.Set{out}, nil
	}})
	if err != nil {
		return err
	}
	err = p.RegisterFunction(dandelion.ComputeFunc{Name: "Render", Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
		var b strings.Builder
		b.WriteString("<html><body>\n")
		for _, s := range in {
			for _, it := range s.Items {
				resp, err := dandelion.ParseHTTPResponse(it.Data)
				if err != nil {
					return nil, err
				}
				if resp.Status == http.StatusOK {
					b.WriteString("<pre>\n" + string(resp.Body) + "</pre>\n")
				} else {
					fmt.Fprintf(&b, "<p>shard error: %d</p>\n", resp.Status)
				}
			}
		}
		b.WriteString("</body></html>")
		return []dandelion.Set{{Name: "HTMLOutput", Items: []dandelion.Item{
			{Name: "page", Data: []byte(b.String())},
		}}}, nil
	}})
	if err != nil {
		return err
	}
	_, err = p.RegisterCompositionText(renderLogs)
	return err
}

// logsIDOf reads the request id off a Figure 3 function's inputs: the
// token (Access), the tagged endpoints (FanOut) or the id header the
// traced shards answer with (Render).
func logsIDOf(fn string, in []dandelion.Set) uint64 {
	if len(in) == 0 || len(in[0].Items) == 0 {
		return 0
	}
	b := in[0].Items[0].Data
	switch fn {
	case "Access":
		return idAfter(b, "tok-")
	case "FanOut":
		return idAfter(b, "?r=")
	}
	return idAfter(b, traceHeader+": ")
}

// logsServices starts the auth service and the seeded log shards,
// granting a token to every request id the run can send. It returns the
// auth URL and the HTML block each shard must contribute to a page.
func logsServices(e *env, cfg runCfg, ids []uint64) (string, [][]byte, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	var shardURLs []string
	var blocks [][]byte
	for k := 0; k < logsShards; k++ {
		sh := &services.LogShard{Name: fmt.Sprintf("shard%d", k)}
		for j := 0; j < logsLines; j++ {
			sh.Lines = append(sh.Lines, logLine(rng))
		}
		blocks = append(blocks, []byte("<pre>\n# shard "+sh.Name+"\n"+strings.Join(sh.Lines, "\n")+"\n</pre>\n"))
		var h http.Handler = sh
		if cfg.rec != nil {
			h = cfg.rec.service("service.shard", func(r *http.Request) uint64 {
				return idAfter([]byte(r.URL.RawQuery), "r=")
			}, h)
		}
		url, err := e.serve(h)
		if err != nil {
			return "", nil, err
		}
		shardURLs = append(shardURLs, url+"/logs")
	}
	auth := services.NewAuthService()
	for _, id := range ids {
		eps := make([]string, len(shardURLs))
		for k, u := range shardURLs {
			eps[k] = fmt.Sprintf("%s?r=%d", u, id)
		}
		auth.Grant(logsToken(id), eps)
	}
	var h http.Handler = auth
	if cfg.rec != nil {
		h = cfg.rec.service("service.auth", func(r *http.Request) uint64 {
			return idAfter(rewind(r), "tok-")
		}, h)
	}
	url, err := e.serve(h)
	return url, blocks, err
}

func startLogs(cfg runCfg) (e *env, err error) {
	e = &env{}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	ids := []uint64{}
	for _, i := range setupRequests {
		ids = append(ids, setupID(0, i))
	}
	n := int(logsRate*(cfg.warmup+cfg.measure).Seconds()) + 2
	for i := 0; i < n; i++ {
		ids = append(ids, reqID(0, i))
	}
	authURL, blocks, err := logsServices(e, cfg, ids)
	if err != nil {
		return e, err
	}

	t0 := time.Now()
	p, err := e.platform(dandelion.Options{JournalDir: filepath.Join(cfg.dir, "logs")})
	if err != nil {
		return e, err
	}
	e.nodes = []*dandelion.Platform{p}
	e.all = e.nodes
	if err := registerLogsApp(wrap(p, cfg.rec, logsIDOf, nil), authURL); err != nil {
		return e, err
	}
	var h http.Handler = frontend.NewWithConfig(p, frontend.Config{})
	if cfg.rec != nil {
		h = cfg.rec.handler("frontend", h)
	}
	url, err := e.serve(h)
	if err != nil {
		return e, err
	}
	target := url + "/invoke/RenderLogs?input=AccessToken"
	e.streams = []*stream{{name: "main", conns: logsConns, rate: logsRate,
		send: func(c *http.Client, i int, id uint64, traced bool) outcome {
			token := logsToken(id)
			hdr := map[string]string{frontend.IdempotencyKeyHeader: fmt.Sprintf("key-%d", id)}
			out := outcome{invs: 1}
			page, err := post(c, target, "application/octet-stream", hdr, []byte(token), id, traced)
			out.bytes = int64(len(token) + len(page))
			if err != nil {
				out.failed, out.err = 1, err.Error()
				return out
			}
			for _, b := range blocks {
				if !bytes.Contains(page, e.expect(b)) {
					out.wrong, out.err = 1, "RenderLogs page is missing a shard's lines"
					return out
				}
			}
			out.ok = 1
			return out
		}}}
	if err := e.firstResponses(); err != nil {
		return e, err
	}
	e.setup = time.Since(t0)
	return e, nil
}

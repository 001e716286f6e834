# pnstmd — the sharded parallel-nesting STM server — as a container.
#
#   docker build -t pnstmd .
#   docker run -p 7455:7455 -p 7456:7456 pnstmd \
#       -shards 4 -admin :7456
#
# The admin listener doubles as the container health surface: the
# HEALTHCHECK probes /healthz, and /readyz flips to 503 the moment
# shutdown begins or a shard's WAL latches an I/O error, so an
# orchestrator stops routing to a replica that can no longer commit.
# Durable deployments mount a volume and add -data-dir /data.

FROM golang:1.24-alpine AS build
WORKDIR /src
# No third-party modules: go.mod alone pins the toolchain, and the
# source tree is the entire dependency closure.
COPY go.mod ./
COPY . .
RUN CGO_ENABLED=0 go build -trimpath -ldflags="-s -w" -o /out/pnstmd ./cmd/pnstmd \
    && CGO_ENABLED=0 go build -trimpath -ldflags="-s -w" -o /out/pnstm-loadgen ./cmd/pnstm-loadgen

FROM alpine:3.20
RUN apk add --no-cache wget ca-certificates \
    && addgroup -S pnstm && adduser -S -G pnstm pnstm \
    && mkdir /data && chown pnstm:pnstm /data
COPY --from=build /out/pnstmd /usr/local/bin/pnstmd
# The load generator rides along for smoke-testing a deployed image
# (docker exec <ctr> pnstm-loadgen -addr 127.0.0.1:7455 ...).
COPY --from=build /out/pnstm-loadgen /usr/local/bin/pnstm-loadgen
USER pnstm
VOLUME /data
EXPOSE 7455 7456
HEALTHCHECK --interval=10s --timeout=3s --start-period=5s --retries=3 \
    CMD wget -q -O /dev/null http://127.0.0.1:7456/healthz || exit 1
ENTRYPOINT ["pnstmd", "-addr", ":7455", "-admin", ":7456"]
CMD ["-shards", "4"]

# Shared helpers for the smoke scripts (dist_smoke, chaos_smoke,
# frontier_smoke, obs_smoke). Source from the repo root:
#
#   . scripts/lib.sh
#   rcoal_init            # tmp dir + cleanup trap
#   rcoal_build           # binaries into $RCOAL_BIN
#   ADDR=$(rcoal_pick_addr)
#   rcoal_wait_ready "$ADDR"
#
# Everything here is bash + coreutils only: port probing and HTTP GET
# go through /dev/tcp, so the scripts run on CI images without curl.

# rcoal_init creates the scratch dir ($RCOAL_TMP) and installs an EXIT
# trap that kills every background job and removes it. KILL_HARD=-9
# upgrades the cleanup kill for scripts that orphan -9'd workers.
rcoal_init() {
  RCOAL_TMP=$(mktemp -d)
  RCOAL_BIN="$RCOAL_TMP/bin"
  trap 'rcoal_cleanup' EXIT
}

rcoal_cleanup() {
  jobs -p | xargs -r kill ${KILL_HARD:-} 2>/dev/null || true
  rm -rf "$RCOAL_TMP"
}

# rcoal_build compiles the named ./cmd packages (default:
# rcoal-experiments, which also coordinates with -serve) into $RCOAL_BIN.
rcoal_build() {
  local pkgs=("$@")
  if [ ${#pkgs[@]} -eq 0 ]; then
    pkgs=(./cmd/rcoal-experiments)
  fi
  go build -o "$RCOAL_BIN/" "${pkgs[@]}"
}

now_ms() { date +%s%3N; }

# rcoal_port_free probes host:port; succeeds when nothing listens.
rcoal_port_free() {
  ! (exec 3<>"/dev/tcp/$1/$2") 2>/dev/null
}

# rcoal_pick_addr prints a collision-free localhost:port, drawn at
# random from the 20000-45000 band so parallel smoke runs on one box
# do not race each other for the historical fixed ports.
rcoal_pick_addr() {
  local port
  for _ in $(seq 1 50); do
    port=$((20000 + RANDOM % 25000))
    if rcoal_port_free 127.0.0.1 "$port"; then
      echo "localhost:$port"
      return 0
    fi
  done
  echo "lib.sh: no free port found in 20000-45000" >&2
  return 1
}

# rcoal_wait_ready host:port [timeout_s] polls until something accepts
# on the address — the spawn-coordinator-then-sleep pattern, without
# the guessed sleep.
rcoal_wait_ready() {
  local host=${1%%:*} port=${1##*:} deadline=$((SECONDS + ${2:-10}))
  while [ $SECONDS -lt $deadline ]; do
    if ! rcoal_port_free "$host" "$port"; then
      return 0
    fi
    sleep 0.01
  done
  echo "lib.sh: $1 not ready within ${2:-10}s" >&2
  return 1
}

# rcoal_http_get url prints the response body of a GET over /dev/tcp
# (HTTP/1.0, so the server closes the connection after the body).
rcoal_http_get() {
  local url=${1#http://} host port path
  host=${url%%/*}
  path=/${url#*/}
  [ "$path" = "/$url" ] && path=/
  port=${host##*:}
  host=${host%%:*}
  exec 3<>"/dev/tcp/$host/$port"
  printf 'GET %s HTTP/1.0\r\nHost: %s\r\n\r\n' "$path" "$host" >&3
  # Strip the status line + headers (up to the first blank line).
  sed '1,/^\r*$/d' <&3
  exec 3<&- 3>&-
}

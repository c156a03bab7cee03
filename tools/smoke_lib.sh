# Helpers shared by the serve smoke test, the cluster smoke test and the
# cluster chaos drill; each script sources this file after defining
# fail() and $WORK.

# $1 = port file, $2 = pid: serve and route write their ports after
# binding both listeners.
wait_ports() {
    i=0
    while [ ! -s "$1" ]; do
        i=$((i + 1))
        [ "$i" -gt 100 ] && fail "$1 never appeared"
        kill -0 "$2" 2>/dev/null || fail "process behind $1 exited early"
        sleep 0.1
    done
}

# Minimal HTTP/1.1 GET/POST without curl (the CI image has it, dev boxes
# may not); body goes to stdout, the status line to $WORK/status.
probe() {
    method="$1"; port="$2"; target="$3"
    printf '%s %s HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\nConnection: close\r\n\r\n' \
        "$method" "$target" |
        (if command -v nc >/dev/null 2>&1; then
             nc 127.0.0.1 "$port"
         else
             # Bash fallback via /dev/tcp.
             bash -c 'exec 3<>/dev/tcp/127.0.0.1/'"$port"'; cat >&3; cat <&3'
         fi) > "$WORK/resp" 2>/dev/null
    head -n 1 "$WORK/resp" | tr -d '\r' > "$WORK/status"
    # Body = everything after the blank line.
    awk 'body {print} /^\r?$/ {body=1}' "$WORK/resp"
}

//! Property tests for the HTTP request parser the portal and the lab
//! daemon share: hostile bytes never panic it, and what the formatters
//! write it reads back exactly.

use proptest::prelude::*;
use v6portal::http::HttpRequest;

/// Request-shaped bytes: a plausible head (sometimes with a lying
/// `Content-Length`) followed by arbitrary bytes.
fn request_like() -> impl Strategy<Value = Vec<u8>> {
    (
        prop::sample::select(vec!["GET", "POST", "", "G E T"]),
        "[ -~]{0,24}",
        prop::sample::select(vec![
            "",
            "Content-Length: 0\r\n",
            "Content-Length: 5\r\n",
            "content-length: 18446744073709551615\r\n",
            "Content-Length: -3\r\n",
            "Host:\r\n",
        ]),
        prop::collection::vec(any::<u8>(), 0..64),
    )
        .prop_map(|(method, path, header, tail)| {
            let mut raw = format!("{method} {path} HTTP/1.1\r\n{header}\r\n").into_bytes();
            raw.extend(tail);
            raw
        })
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(raw in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = HttpRequest::parse(&raw);
    }

    #[test]
    fn request_shaped_bytes_never_panic(raw in request_like()) {
        if let Some(req) = HttpRequest::parse(&raw) {
            prop_assert!(!req.method.is_empty() && !req.path.is_empty());
        }
    }

    #[test]
    fn format_get_roundtrips(host in "[a-z0-9.:-]{0,24}", path in "/[!-~]{0,40}") {
        let raw = HttpRequest::format_get(&host, &path);
        let req = HttpRequest::parse(raw.as_bytes()).expect("a formatted GET parses");
        prop_assert_eq!(req, HttpRequest {
            method: "GET".into(),
            path,
            host,
            body: String::new(),
        });
    }

    #[test]
    fn format_post_roundtrips(
        host in "[a-z0-9.:-]{1,24}",
        path in "/[!-~]{0,40}",
        body in "[ -~\r\néλ→]{0,80}",
    ) {
        let raw = HttpRequest::format_post(&host, &path, &body);
        let req = HttpRequest::parse(raw.as_bytes()).expect("a formatted POST parses");
        prop_assert_eq!(req, HttpRequest {
            method: "POST".into(),
            path,
            host,
            body: body.clone(),
        });
        // Any strict prefix is incomplete, never a different request.
        let cut = raw.len() - 1;
        if !body.is_empty() {
            prop_assert!(HttpRequest::parse(&raw.as_bytes()[..cut]).is_none());
        }
    }
}

//! The one lexer and token cursor behind both surface syntaxes, the
//! Java-like [`crate::parser`] and the C-like [`crate::cfront`].
//!
//! Lexical rules, the same for both:
//!
//! - `//` comments run to the end of the line; `/* */` comments may span
//!   lines and do not nest; an unterminated `/*` is an error at its
//!   position;
//! - identifiers are `[A-Za-z_$][A-Za-z0-9_$]*`, plus `<init>`-style
//!   names: `<`, 1 to 32 word characters, `>` on one line;
//! - numbers are decimal and fit in a `u64`;
//! - punctuation is `{ } ( ) [ ] ; , = . : :: -> * @ &`.
//!
//! A grammar that has no use for a token rejects it in the parser, at the
//! token's line and column.

use crate::parser::ParseError;
use std::fmt;

/// A 1-based source position attached to every token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Pos {
    line: u32,
    col: u32,
}

impl Pos {
    fn error(self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            col: self.col,
            message: message.into(),
        }
    }
}

/// A token; identifiers borrow from the source text.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Tok<'a> {
    Ident(&'a str),
    Num(u64),
    LBrace,
    RBrace,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Eq,
    Dot,
    Colon,
    ColonColon,
    Arrow,
    Star,
    At,
    Amp,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::Num(n) => write!(f, "{n}"),
            Tok::LBrace => write!(f, "{{"),
            Tok::RBrace => write!(f, "}}"),
            Tok::LParen => write!(f, "("),
            Tok::RParen => write!(f, ")"),
            Tok::LBracket => write!(f, "["),
            Tok::RBracket => write!(f, "]"),
            Tok::Semi => write!(f, ";"),
            Tok::Comma => write!(f, ","),
            Tok::Eq => write!(f, "="),
            Tok::Dot => write!(f, "."),
            Tok::Colon => write!(f, ":"),
            Tok::ColonColon => write!(f, "::"),
            Tok::Arrow => write!(f, "->"),
            Tok::Star => write!(f, "*"),
            Tok::At => write!(f, "@"),
            Tok::Amp => write!(f, "&"),
        }
    }
}

/// The one-byte punctuation tokens.
fn punct(b: u8) -> Option<Tok<'static>> {
    Some(match b {
        b'{' => Tok::LBrace,
        b'}' => Tok::RBrace,
        b'(' => Tok::LParen,
        b')' => Tok::RParen,
        b'[' => Tok::LBracket,
        b']' => Tok::RBracket,
        b';' => Tok::Semi,
        b',' => Tok::Comma,
        b'=' => Tok::Eq,
        b'.' => Tok::Dot,
        b':' => Tok::Colon,
        b'*' => Tok::Star,
        b'@' => Tok::At,
        b'&' => Tok::Amp,
        _ => return None,
    })
}

fn is_word(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b'$'
}

/// Splits `src` into tokens and their positions.
fn lex(src: &str) -> Result<(Vec<Tok<'_>>, Vec<Pos>), ParseError> {
    let mut toks = Vec::new();
    let mut at = Vec::new();
    let mut push = |t, pos| {
        toks.push(t);
        at.push(pos);
    };
    let mut line: u32 = 1;
    let mut line_start: usize = 0;
    let bytes = src.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        let next = bytes.get(i + 1).copied();
        // `i` is at the first byte of the candidate token here, so the
        // column is valid for every arm below (multi-byte tokens included).
        let pos = Pos {
            line,
            col: (i - line_start) as u32 + 1,
        };
        match b {
            b'\n' => {
                line += 1;
                i += 1;
                line_start = i;
            }
            _ if (b as char).is_whitespace() => i += 1,
            b'/' if next == Some(b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if next == Some(b'*') => {
                let len = src[i + 2..]
                    .find("*/")
                    .ok_or_else(|| pos.error("unterminated `/*` comment"))?;
                let end = i + 2 + len + 2;
                while i < end {
                    if bytes[i] == b'\n' {
                        line += 1;
                        line_start = i + 1;
                    }
                    i += 1;
                }
            }
            b':' if next == Some(b':') => {
                push(Tok::ColonColon, pos);
                i += 2;
            }
            b'-' if next == Some(b'>') => {
                push(Tok::Arrow, pos);
                i += 2;
            }
            b'<' => {
                // Allow `<init>`-style identifiers: short, single-line,
                // word characters only. Anything else is a lex error (an
                // unbounded scan would swallow whole method bodies and
                // report wrong line numbers).
                let start = i;
                i += 1;
                while i < bytes.len()
                    && i - start <= 32
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                if i < bytes.len() && bytes[i] == b'>' && i - start > 1 {
                    i += 1;
                    push(Tok::Ident(&src[start..i]), pos);
                } else {
                    return Err(pos.error("malformed `<...>` identifier"));
                }
            }
            b'0'..=b'9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let n = src[start..i]
                    .parse()
                    .map_err(|_| pos.error("invalid number"))?;
                push(Tok::Num(n), pos);
            }
            _ if is_word(b) => {
                let start = i;
                while i < bytes.len() && is_word(bytes[i]) {
                    i += 1;
                }
                push(Tok::Ident(&src[start..i]), pos);
            }
            _ => match punct(b) {
                Some(t) => {
                    push(t, pos);
                    i += 1;
                }
                None => {
                    // Every arm above steps over ASCII bytes, a whole
                    // comment or a whole line, so `i` starts a character.
                    let c = src[i..].chars().next().unwrap_or_default();
                    return Err(pos.error(format!("unexpected character `{c}`")));
                }
            },
        }
    }
    Ok((toks, at))
}

/// How many blocks may be open at once. Both grammars parse a block by
/// recursion, so the ceiling bounds the parser's stack: deeper input is
/// a parse error at the `{` that exceeds it, not a stack overflow that
/// takes down the process (and, under `o2 serve`, every connection).
/// Sized for the dev profile on a default 2 MiB test or worker thread.
const MAX_NESTING: u32 = 512;

/// A recursive-descent cursor over the tokens of one source text.
pub(crate) struct Cursor<'a> {
    toks: Vec<Tok<'a>>,
    at: Vec<Pos>,
    pos: usize,
    /// Blocks opened by [`Self::open_block`] and not yet closed.
    depth: u32,
}

impl<'a> Cursor<'a> {
    /// Lexes `src`.
    pub(crate) fn new(src: &'a str) -> Result<Self, ParseError> {
        let (toks, at) = lex(src)?;
        Ok(Cursor {
            toks,
            at,
            pos: 0,
            depth: 0,
        })
    }

    /// The tokens not yet consumed, for look-ahead pre-scans.
    pub(crate) fn rest(&self) -> &[Tok<'a>] {
        &self.toks[self.pos..]
    }

    pub(crate) fn peek(&self) -> Option<Tok<'a>> {
        self.toks.get(self.pos).copied()
    }

    pub(crate) fn peek2(&self) -> Option<Tok<'a>> {
        self.toks.get(self.pos + 1).copied()
    }

    pub(crate) fn peek3(&self) -> Option<Tok<'a>> {
        self.toks.get(self.pos + 2).copied()
    }

    /// The current token's position, the last token's at the end of
    /// input, and 0:0 for an empty input.
    fn cur_pos(&self) -> Pos {
        self.at
            .get(self.pos)
            .or_else(|| self.at.last())
            .copied()
            .unwrap_or(Pos { line: 0, col: 0 })
    }

    pub(crate) fn line(&self) -> u32 {
        self.cur_pos().line
    }

    /// An error at the current token.
    pub(crate) fn err(&self, message: impl Into<String>) -> ParseError {
        self.cur_pos().error(message)
    }

    pub(crate) fn next(&mut self) -> Result<Tok<'a>, ParseError> {
        let t = self
            .peek()
            .ok_or_else(|| self.err("unexpected end of input"))?;
        self.pos += 1;
        Ok(t)
    }

    /// Consumes `tok`, or fails at the current token.
    pub(crate) fn want(&mut self, tok: Tok<'_>) -> Result<(), ParseError> {
        let got = self.next()?;
        if got == tok {
            Ok(())
        } else {
            self.pos -= 1;
            Err(self.err(format!("expected `{tok}`, found `{got}`")))
        }
    }

    /// Consumes the `{` that opens a block, failing at it when
    /// [`MAX_NESTING`] blocks are already open.
    pub(crate) fn open_block(&mut self) -> Result<(), ParseError> {
        if self.depth == MAX_NESTING && self.peek() == Some(Tok::LBrace) {
            return Err(self.err(format!("blocks nested deeper than {MAX_NESTING}")));
        }
        self.want(Tok::LBrace)?;
        self.depth += 1;
        Ok(())
    }

    /// Consumes the `}` that closes the innermost open block.
    pub(crate) fn close_block(&mut self) -> Result<(), ParseError> {
        self.want(Tok::RBrace)?;
        self.depth -= 1;
        Ok(())
    }

    pub(crate) fn ident(&mut self) -> Result<&'a str, ParseError> {
        match self.next()? {
            Tok::Ident(s) => Ok(s),
            got => {
                self.pos -= 1;
                Err(self.err(format!("expected identifier, found `{got}`")))
            }
        }
    }

    /// Consumes the identifier `kw` if it is next.
    pub(crate) fn eat_ident(&mut self, kw: &str) -> bool {
        if self.peek() == Some(Tok::Ident(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    pub(crate) fn num(&mut self) -> Result<u64, ParseError> {
        match self.next()? {
            Tok::Num(n) => Ok(n),
            got => {
                self.pos -= 1;
                Err(self.err(format!("expected number, found `{got}`")))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::cfront::parse_c;
    use crate::parser::{parse, ParseError};

    /// The error both frontends give for `src`.
    fn both_fail(src: &str) -> (ParseError, ParseError) {
        (parse(src).unwrap_err(), parse_c(src).unwrap_err())
    }

    #[test]
    fn multi_line_block_comment_keeps_line_numbers() {
        let o2 = "/* one\n two\n three */ class C {\n  field ;\n}";
        assert_eq!(parse(o2).unwrap_err().line, 4);
        let c = "/* one\n two\n three */ struct S {\n any;\n};";
        assert_eq!(parse_c(c).unwrap_err().line, 4);
    }

    #[test]
    fn unterminated_block_comment_is_an_error_at_its_start() {
        let (o2, c) = both_fail("x\n  /* void worker() { }\n");
        for e in [o2, c] {
            assert_eq!((e.line, e.col), (2, 3), "{e}");
            assert_eq!(e.message, "unterminated `/*` comment");
        }
    }

    #[test]
    fn unlexable_character_fails_at_the_same_position_in_both() {
        let (o2, c) = both_fail("a b\n  c # d");
        assert_eq!(o2, c);
        assert_eq!((o2.line, o2.col), (2, 5));
        assert_eq!(o2.message, "unexpected character `#`");
    }

    #[test]
    fn unexpected_character_names_the_whole_utf8_character() {
        let (o2, c) = both_fail("ab xé");
        assert_eq!(o2, c);
        assert_eq!((o2.line, o2.col), (1, 5));
        assert_eq!(o2.message, "unexpected character `é`");
        let e = parse_c("void main() { … }").unwrap_err();
        assert_eq!((e.line, e.col), (1, 15));
        assert_eq!(e.message, "unexpected character `…`");
    }
}

//! `#[derive(Serialize, Deserialize)]` for the `serde` shim, written against
//! bare `proc_macro` (no `syn`/`quote`: nothing resolves offline).
//!
//! Covered, with the JSON the published derive produces:
//! * structs — named (`{"a":..}`), newtype (the inner value), tuple
//!   (`[..]`), unit (`null`);
//! * enums, externally tagged — unit (`"V"`), newtype (`{"V":x}`), tuple
//!   (`{"V":[..]}`), struct (`{"V":{..}}`); recursion through `Box` works
//!   because the expansion never names a field's type;
//! * enums with `#[serde(tag = "..")]` — unit and struct variants
//!   (`{"type":"v", ..}`), newtype variants whose payload is an object;
//! * `#[serde(rename_all = "snake_case")]` on enums;
//! * `#[serde(default)]` and `#[serde(skip_serializing_if = "path")]` on
//!   fields; absent `Option` fields read as `None`; unknown keys are ignored.
//!
//! Anything else (generics, other attributes) is a compile error naming the
//! unsupported piece rather than a silent mis-serialization.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    emit(serialize_impl(&item))
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    emit(deserialize_impl(&item))
}

fn emit(code: String) -> TokenStream {
    code.parse()
        .unwrap_or_else(|e| panic!("serde_derive shim emitted invalid Rust ({e}):\n{code}"))
}

// ---------------------------------------------------------------- model

struct Item {
    name: String,
    /// `#[serde(tag = "..")]`: internally tagged.
    tag: Option<String>,
    snake_case: bool,
    data: Data,
}

enum Data {
    Struct(Fields),
    Enum(Vec<Variant>),
}

enum Fields {
    Named(Vec<Field>),
    Tuple(usize),
    Unit,
}

struct Field {
    name: String,
    default: bool,
    skip_serializing_if: Option<String>,
}

struct Variant {
    name: String,
    fields: Fields,
}

// -------------------------------------------------------------- parsing

/// `key` or `key = "value"` entries of every `#[serde(..)]` in `attrs`.
fn serde_args(attrs: &[TokenTree]) -> Vec<(String, Option<String>)> {
    let mut out = Vec::new();
    for attr in attrs {
        let TokenTree::Group(g) = attr else { continue };
        let mut inner = g.stream().into_iter();
        match inner.next() {
            Some(TokenTree::Ident(i)) if i.to_string() == "serde" => {}
            _ => continue,
        }
        let Some(TokenTree::Group(args)) = inner.next() else {
            panic!("serde_derive shim: expected #[serde(..)]")
        };
        let toks: Vec<TokenTree> = args.stream().into_iter().collect();
        for entry in toks.split(|t| matches!(t, TokenTree::Punct(p) if p.as_char() == ',')) {
            match entry {
                [] => {}
                [TokenTree::Ident(k)] => out.push((k.to_string(), None)),
                [TokenTree::Ident(k), TokenTree::Punct(eq), TokenTree::Literal(v)]
                    if eq.as_char() == '=' =>
                {
                    let v = v.to_string();
                    let v = v
                        .strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .unwrap_or_else(|| {
                            panic!("serde_derive shim: `{k}` wants a string, got {v}")
                        });
                    out.push((k.to_string(), Some(v.to_owned())));
                }
                _ => panic!("serde_derive shim: cannot read #[serde({})]", args.stream()),
            }
        }
    }
    out
}

/// Splits leading `#[..]` attributes (returned as their bracket groups) and
/// a `pub` / `pub(..)` visibility off the front of `toks`.
fn strip_attrs_and_vis(toks: &[TokenTree]) -> (Vec<TokenTree>, &[TokenTree]) {
    let mut attrs = Vec::new();
    let mut rest = toks;
    loop {
        match rest {
            [TokenTree::Punct(p), g @ TokenTree::Group(_), tail @ ..] if p.as_char() == '#' => {
                attrs.push(g.clone());
                rest = tail;
            }
            [TokenTree::Ident(i), tail @ ..] if i.to_string() == "pub" => {
                rest = match tail {
                    [TokenTree::Group(g), t @ ..] if g.delimiter() == Delimiter::Parenthesis => t,
                    t => t,
                };
            }
            _ => return (attrs, rest),
        }
    }
}

/// Splits on commas that are not nested inside `<..>` (groups already hide
/// the ones inside brackets), dropping an empty trailing piece.
fn split_top_level(toks: Vec<TokenTree>) -> Vec<Vec<TokenTree>> {
    let mut pieces = vec![Vec::new()];
    let mut angle = 0usize;
    for t in toks {
        if let TokenTree::Punct(p) = &t {
            match p.as_char() {
                '<' => angle += 1,
                '>' => angle = angle.saturating_sub(1),
                ',' if angle == 0 => {
                    pieces.push(Vec::new());
                    continue;
                }
                _ => {}
            }
        }
        pieces.last_mut().expect("starts non-empty").push(t);
    }
    if pieces.last().is_some_and(Vec::is_empty) {
        pieces.pop();
    }
    pieces
}

fn parse_named_fields(body: TokenStream) -> Vec<Field> {
    split_top_level(body.into_iter().collect())
        .iter()
        .map(|piece| {
            let (attrs, rest) = strip_attrs_and_vis(piece);
            let [TokenTree::Ident(name), TokenTree::Punct(colon), ..] = rest else {
                panic!("serde_derive shim: expected `name: Type` field")
            };
            assert_eq!(
                colon.as_char(),
                ':',
                "serde_derive shim: expected `name: Type` field"
            );
            let mut field = Field {
                name: name.to_string(),
                default: false,
                skip_serializing_if: None,
            };
            for (key, value) in serde_args(&attrs) {
                match (key.as_str(), value) {
                    ("default", None) => field.default = true,
                    ("skip_serializing_if", Some(path)) => field.skip_serializing_if = Some(path),
                    (other, _) => panic!(
                        "serde_derive shim: unsupported field attribute `{other}` on `{}`",
                        field.name
                    ),
                }
            }
            field
        })
        .collect()
}

fn parse_fields(group: Option<&TokenTree>) -> Fields {
    match group {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            Fields::Named(parse_named_fields(g.stream()))
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            Fields::Tuple(split_top_level(g.stream().into_iter().collect()).len())
        }
        _ => Fields::Unit,
    }
}

fn parse_item(input: TokenStream) -> Item {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let (attrs, rest) = strip_attrs_and_vis(&toks);
    let [TokenTree::Ident(kind), TokenTree::Ident(name), body @ ..] = rest else {
        panic!("serde_derive shim: expected `struct Name` or `enum Name`")
    };
    let name = name.to_string();
    if matches!(body.first(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde_derive shim: generic type `{name}` is not supported");
    }

    let mut item = Item {
        name,
        tag: None,
        snake_case: false,
        data: Data::Struct(Fields::Unit),
    };
    for (key, value) in serde_args(&attrs) {
        match (key.as_str(), value.as_deref()) {
            ("tag", Some(tag)) => item.tag = Some(tag.to_owned()),
            ("rename_all", Some("snake_case")) => item.snake_case = true,
            (other, v) => panic!(
                "serde_derive shim: unsupported container attribute `{other}`{} on `{}`",
                v.map(|v| format!(" = \"{v}\"")).unwrap_or_default(),
                item.name
            ),
        }
    }

    item.data = match kind.to_string().as_str() {
        "struct" => Data::Struct(parse_fields(body.first())),
        "enum" => {
            let Some(TokenTree::Group(g)) = body.first() else {
                panic!("serde_derive shim: enum `{}` has no body", item.name)
            };
            let variants = split_top_level(g.stream().into_iter().collect())
                .iter()
                .map(|piece| {
                    let (attrs, rest) = strip_attrs_and_vis(piece);
                    if let Some((key, _)) = serde_args(&attrs).first() {
                        panic!("serde_derive shim: unsupported variant attribute `{key}`");
                    }
                    let [TokenTree::Ident(vname), tail @ ..] = rest else {
                        panic!(
                            "serde_derive shim: expected a variant name in `{}`",
                            item.name
                        )
                    };
                    Variant {
                        name: vname.to_string(),
                        fields: parse_fields(tail.first()),
                    }
                })
                .collect();
            Data::Enum(variants)
        }
        other => panic!("serde_derive shim: cannot derive for `{other}`"),
    };
    if (item.tag.is_some() || item.snake_case) && !matches!(item.data, Data::Enum(_)) {
        panic!("serde_derive shim: `tag` / `rename_all` are only supported on enums");
    }
    item
}

/// serde's `snake_case` rule: an underscore before every capital but the first.
fn snake_case(name: &str) -> String {
    let mut out = String::new();
    for (i, c) in name.chars().enumerate() {
        if c.is_uppercase() && i > 0 {
            out.push('_');
        }
        out.extend(c.to_lowercase());
    }
    out
}

impl Item {
    fn wire_name(&self, v: &Variant) -> String {
        if self.snake_case {
            snake_case(&v.name)
        } else {
            v.name.clone()
        }
    }
}

// ------------------------------------------------------------ Serialize

const VALUE: &str = "::serde::Value";

fn bindings(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("f{i}")).collect()
}

/// Statements pushing each named field onto `obj`; `access` turns a field
/// name into an expression of type `&FieldType`.
fn push_fields(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    fields
        .iter()
        .map(|f| {
            let expr = access(&f.name);
            let push = format!(
                "obj.push((::std::string::String::from(\"{}\"), ::serde::Serialize::to_value({expr})));",
                f.name
            );
            match &f.skip_serializing_if {
                Some(path) => format!("if !{path}({expr}) {{ {push} }}"),
                None => push,
            }
        })
        .collect()
}

fn serialize_impl(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.data {
        Data::Struct(Fields::Unit) => format!("{VALUE}::Null"),
        Data::Struct(Fields::Tuple(1)) => "::serde::Serialize::to_value(&self.0)".to_owned(),
        Data::Struct(Fields::Tuple(n)) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!("{VALUE}::Array(::std::vec![{}])", items.join(", "))
        }
        Data::Struct(Fields::Named(fields)) => format!(
            "let mut obj = ::std::vec::Vec::new(); {} {VALUE}::Object(obj)",
            push_fields(fields, |f| format!("&self.{f}"))
        ),
        Data::Enum(variants) => {
            let arms: String = variants.iter().map(|v| serialize_arm(item, v)).collect();
            format!("match self {{ {arms} }}")
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{ \
           #[allow(unused_mut)] fn to_value(&self) -> {VALUE} {{ {body} }} }}"
    )
}

fn serialize_arm(item: &Item, v: &Variant) -> String {
    let name = &item.name;
    let vname = &v.name;
    let wire = item.wire_name(v);
    let key = format!("::std::string::String::from(\"{wire}\")");
    if let Some(tag) = &item.tag {
        let tag_entry = format!("(::std::string::String::from(\"{tag}\"), {VALUE}::String({key}))");
        return match &v.fields {
            Fields::Unit => format!("{name}::{vname} => {VALUE}::Object(::std::vec![{tag_entry}]),"),
            Fields::Named(fields) => {
                let binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                format!(
                    "{name}::{vname} {{ {} }} => {{ let mut obj = ::std::vec![{tag_entry}]; {} {VALUE}::Object(obj) }}",
                    binds.join(", "),
                    push_fields(fields, |f| f.to_owned())
                )
            }
            Fields::Tuple(1) => format!(
                "{name}::{vname}(f0) => match ::serde::Serialize::to_value(f0) {{ \
                   {VALUE}::Object(fields) => {{ let mut obj = ::std::vec![{tag_entry}]; obj.extend(fields); {VALUE}::Object(obj) }} \
                   _ => panic!(\"internally tagged newtype variant {name}::{vname} must hold an object\"), }},"
            ),
            Fields::Tuple(_) => {
                panic!("serde_derive shim: tuple variant `{name}::{vname}` cannot be internally tagged")
            }
        };
    }
    match &v.fields {
        Fields::Unit => format!("{name}::{vname} => {VALUE}::String({key}),"),
        Fields::Tuple(1) => format!(
            "{name}::{vname}(f0) => {VALUE}::Object(::std::vec![({key}, ::serde::Serialize::to_value(f0))]),"
        ),
        Fields::Tuple(n) => {
            let binds = bindings(*n);
            let items: Vec<String> =
                binds.iter().map(|b| format!("::serde::Serialize::to_value({b})")).collect();
            format!(
                "{name}::{vname}({}) => {VALUE}::Object(::std::vec![({key}, {VALUE}::Array(::std::vec![{}]))]),",
                binds.join(", "),
                items.join(", ")
            )
        }
        Fields::Named(fields) => {
            let binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
            format!(
                "{name}::{vname} {{ {} }} => {{ let mut obj = ::std::vec::Vec::new(); {} \
                 {VALUE}::Object(::std::vec![({key}, {VALUE}::Object(obj))]) }}",
                binds.join(", "),
                push_fields(fields, |f| f.to_owned())
            )
        }
    }
}

// ---------------------------------------------------------- Deserialize

/// `a: field(obj, "a")?, b: ..` — the body of a struct literal read from `obj`.
fn read_fields(fields: &[Field]) -> String {
    fields
        .iter()
        .map(|f| {
            let helper = if f.default {
                "field_or_default"
            } else {
                "field"
            };
            format!("{0}: ::serde::__private::{helper}(obj, \"{0}\")?,", f.name)
        })
        .collect()
}

/// `Ctor(from_value(&a[0])?, ..)` read from the array expression `src`.
fn read_tuple(ctor: &str, n: usize, src: &str, what: &str) -> String {
    let items: Vec<String> = (0..n)
        .map(|i| format!("::serde::Deserialize::from_value(&a[{i}])?"))
        .collect();
    format!(
        "{{ let a = ::serde::__private::array({src}, {n}, \"{what}\")?; {ctor}({}) }}",
        items.join(", ")
    )
}

fn deserialize_impl(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.data {
        Data::Struct(Fields::Unit) => format!(
            "if v.is_null() {{ Ok({name}) }} else {{ Err(::serde::Error::new(\"expected null for unit struct {name}\")) }}"
        ),
        Data::Struct(Fields::Tuple(1)) => {
            format!("Ok({name}(::serde::Deserialize::from_value(v)?))")
        }
        Data::Struct(Fields::Tuple(n)) => format!("Ok({})", read_tuple(name, *n, "v", name)),
        Data::Struct(Fields::Named(fields)) => format!(
            "let obj = ::serde::__private::object(v, \"{name}\")?; Ok({name} {{ {} }})",
            read_fields(fields)
        ),
        Data::Enum(variants) => match &item.tag {
            Some(tag) => {
                let arms: String = variants
                    .iter()
                    .map(|v| {
                        let vname = &v.name;
                        let wire = item.wire_name(v);
                        match &v.fields {
                            Fields::Unit => format!("\"{wire}\" => Ok({name}::{vname}),"),
                            Fields::Named(fields) => format!(
                                "\"{wire}\" => Ok({name}::{vname} {{ {} }}),",
                                read_fields(fields)
                            ),
                            Fields::Tuple(1) => format!(
                                "\"{wire}\" => Ok({name}::{vname}(::serde::Deserialize::from_value(v)?)),"
                            ),
                            Fields::Tuple(_) => panic!(
                                "serde_derive shim: tuple variant `{name}::{vname}` cannot be internally tagged"
                            ),
                        }
                    })
                    .collect();
                format!(
                    "let obj = ::serde::__private::object(v, \"{name}\")?; \
                     match ::serde::__private::tag(obj, \"{tag}\", \"{name}\")? {{ {arms} \
                     other => Err(::serde::__private::unknown_variant(other, \"{name}\")), }}"
                )
            }
            None => {
                let arms: String = variants
                    .iter()
                    .map(|v| {
                        let vname = &v.name;
                        let wire = item.wire_name(v);
                        let payload = format!("::serde::__private::payload(payload, \"{wire}\")?");
                        match &v.fields {
                            Fields::Unit => format!("\"{wire}\" => Ok({name}::{vname}),"),
                            Fields::Tuple(1) => format!(
                                "\"{wire}\" => Ok({name}::{vname}(::serde::Deserialize::from_value({payload})?)),"
                            ),
                            Fields::Tuple(n) => format!(
                                "\"{wire}\" => Ok({}),",
                                read_tuple(&format!("{name}::{vname}"), *n, &payload, &wire)
                            ),
                            Fields::Named(fields) => format!(
                                "\"{wire}\" => {{ let obj = ::serde::__private::object({payload}, \"{wire}\")?; \
                                 Ok({name}::{vname} {{ {} }}) }}",
                                read_fields(fields)
                            ),
                        }
                    })
                    .collect();
                format!(
                    "let (variant, payload) = ::serde::__private::variant(v, \"{name}\")?; \
                     match variant {{ {arms} \
                     other => Err(::serde::__private::unknown_variant(other, \"{name}\")), }}"
                )
            }
        },
    };
    format!(
        "impl ::serde::Deserialize for {name} {{ \
           #[allow(unused_variables)] \
           fn from_value(v: &{VALUE}) -> ::std::result::Result<Self, ::serde::Error> {{ {body} }} }}"
    )
}

//! Offline stand-in for `serde_derive`: the derives accept any item and
//! expand to nothing, because nothing the benchmark builds serialises
//! through serde (the repo writes its JSON by hand in `digs-json`).

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_item: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_item: TokenStream) -> TokenStream {
    TokenStream::new()
}
